#!/usr/bin/env bash
# fma.sh — fail if the compiler fuses a multiply and an add anywhere in
# the repository's own code.
#
# Usage: scripts/fma.sh
#
# On arm64, ppc64le, s390x and riscv64 Go may compile x*y + z to one
# fused multiply-add, which rounds once where amd64 rounds twice, so a
# score computed there would differ in its last bits. Every such site in
# the repository rounds the product explicitly (float64(x*y) + z), which
# forbids the fusion. This script cross-compiles every package under
# internal/ and cmd/, plain and as test binaries (`go test -c`), with
# -gcflags=-S into a fresh build cache, so each package really is
# compiled, and prints the file:line of every fused instruction it finds.
# It only compiles: no emulator runs and nothing is downloaded.
#
# The scores also call the standard library's math.Log (Eq 9),
# math.Log10 (the Shannon index) and, in lda, math.Log2, whose portable
# code the repository cannot round. The script compiles package math
# too and lists the fused sites in log.go and log10.go as open, without
# failing on them.

set -euo pipefail
cd "$(dirname "$0")/.."

ARCHES="arm64 ppc64le s390x riscv64"
PKGS=(./internal/... ./cmd/...)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOCACHE="$tmp/cache" GOPROXY=off GOTOOLCHAIN=local

# A line of -S output: "\t0x0024 00036 (file.go:108)\tFMADDD\tF1, F2, F0, F3".
# FMADD/FMSUB/FNMADD/FNMSUB with an optional S or D suffix cover the
# scalar fused forms of all four targets.
fused=$'\t(FN?M(ADD|SUB)[SD]?)\t'

# fusedsites prints "file:line OP" once for each fused instruction in
# the -S output $1.
fusedsites() {
    grep -E "$fused" "$1" | sed -E 's/^[^(]*\(([^)]*)\).*\t(FN?M(ADD|SUB)[SD]?)\t.*/\1 \2/' | sort -u || true
}

found=0
for arch in $ARCHES; do
    asm="$tmp/$arch.s"
    echo "=== fma $arch" >&2
    ok=1
    GOARCH="$arch" go build -gcflags=-S "${PKGS[@]}" 2>"$asm" || ok=0
    # One go test -c per tree: internal/serve and cmd/serve would both
    # write serve.test.
    for pkg in "${PKGS[@]}"; do
        out="$tmp/bin/$arch/${pkg//[.\/]/_}/"
        mkdir -p "$out"
        GOARCH="$arch" go test -c -o "$out" -gcflags=-S "$pkg" 2>>"$asm" >/dev/null || ok=0
    done
    if [ "$ok" -ne 1 ]; then
        grep -vE '^\s' "$asm" | grep -vE '^(type|go|gclocals)[:.]' | tail -n 20 >&2
        echo "FAIL: $arch does not compile" >&2
        exit 1
    fi
    sites="$(fusedsites "$asm" | sed "s|^$PWD/||")"
    if [ -n "$sites" ]; then
        found=1
        while read -r site op; do
            echo "$arch: $site: fused multiply-add ($op)"
        done <<<"$sites"
    fi
    std="$tmp/$arch.std.s"
    GOARCH="$arch" go build -gcflags=math=-S math 2>"$std"
    fusedsites "$std" | sed -E 's|^.*/src/||' | grep -E '^math/log(10)?\.go:' |
        while read -r site op; do
            echo "$arch: $site: fused multiply-add ($op), standard library, open" >&2
        done || true
done

if [ "$found" -ne 0 ]; then
    echo "FAIL: round the product explicitly at each internal/ or cmd/ site above: float64(x*y) + z" >&2
    exit 1
fi
echo "no fused multiply-adds in internal/ or cmd/ on: $ARCHES" >&2
