package textproc

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// StripHTML removes HTML/XML tags from raw forum markup and decodes the
// common character entities, returning plain text. Block-level closing tags
// (</p>, </div>, <br>, </li>, ...) are replaced with newlines so that the
// sentence splitter sees paragraph boundaries; <script> and <style> elements
// are dropped entirely, and <code>/<pre> contents are kept (StackOverflow
// posts carry meaningful terms inside code blocks).
func StripHTML(raw string) string {
	if strings.IndexByte(raw, '<') < 0 && strings.IndexByte(raw, '&') < 0 {
		return collapseSpace(raw) // no markup: nothing to rewrite
	}
	var b strings.Builder
	b.Grow(len(raw))
	i := 0
	n := len(raw)
	for i < n {
		c := raw[i]
		if c != '<' {
			if c == '&' {
				if ent, adv, ok := decodeEntity(raw[i:]); ok {
					b.WriteString(ent)
					i += adv
					continue
				}
			}
			b.WriteByte(c)
			i++
			continue
		}
		// Find the end of the tag.
		end := strings.IndexByte(raw[i:], '>')
		if end < 0 {
			// Unclosed '<': keep as literal text.
			b.WriteString(raw[i:])
			break
		}
		tag := raw[i+1 : i+end]
		i += end + 1
		name := tagName(tag)
		switch name {
		case "script", "style":
			// Drop everything through the matching close tag. The search
			// must be case-insensitive without lowering the haystack:
			// ToLower changes byte lengths (multi-byte case mappings,
			// invalid bytes becoming U+FFFD), which would corrupt the
			// offset math on hostile input.
			ci := indexCloseTag(raw[i:], name)
			if ci < 0 {
				i = n
				break
			}
			i += ci
			if gt := strings.IndexByte(raw[i:], '>'); gt >= 0 {
				i += gt + 1
			} else {
				i = n
			}
		case "p", "div", "br", "li", "ul", "ol", "tr", "h1", "h2", "h3", "h4", "blockquote", "pre":
			b.WriteByte('\n')
		default:
			// Inline tag: replace with a space so adjacent words do not fuse.
			b.WriteByte(' ')
		}
	}
	return collapseSpace(b.String())
}

// indexCloseTag returns the byte offset of the first "</name" in s,
// ASCII-case-insensitively (name is a lower-case ASCII element name),
// or -1. Offsets refer to s itself, so they are safe to add to a
// position in the original text.
func indexCloseTag(s, name string) int {
	for j := 0; j+2+len(name) <= len(s); j++ {
		if s[j] == '<' && s[j+1] == '/' && strings.EqualFold(s[j+2:j+2+len(name)], name) {
			return j
		}
	}
	return -1
}

// tagName returns the lower-cased element name of a tag body like
// "a href=..." or "/p".
func tagName(tag string) string {
	tag = strings.TrimSpace(tag)
	tag = strings.TrimPrefix(tag, "/")
	end := len(tag)
	for j := 0; j < len(tag); j++ {
		c := tag[j]
		if c == ' ' || c == '\t' || c == '\n' || c == '/' {
			end = j
			break
		}
	}
	return strings.ToLower(tag[:end])
}

var namedEntities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "hellip": "...", "mdash": "—", "ndash": "–",
	"lsquo": "'", "rsquo": "'", "ldquo": `"`, "rdquo": `"`,
	"copy": "©", "reg": "®", "trade": "™", "deg": "°", "middot": "·",
}

// decodeEntity decodes an HTML entity at the start of s ("&amp;", "&#65;",
// "&#x41;"). It returns the decoded text, the number of input bytes
// consumed, and whether an entity was recognized.
func decodeEntity(s string) (string, int, bool) {
	if len(s) < 3 || s[0] != '&' {
		return "", 0, false
	}
	semi := strings.IndexByte(s, ';')
	if semi < 0 || semi > 12 {
		return "", 0, false
	}
	body := s[1:semi]
	if strings.HasPrefix(body, "#") {
		num := body[1:]
		base := 10
		if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
			num = num[1:]
			base = 16
		}
		v, err := strconv.ParseInt(num, base, 32)
		if err != nil || v <= 0 || v > utf8.MaxRune {
			return "", 0, false
		}
		return string(rune(v)), semi + 1, true
	}
	if rep, ok := namedEntities[body]; ok {
		return rep, semi + 1, true
	}
	return "", 0, false
}

// collapseSpace reduces runs of spaces/tabs to a single space and runs of 3+
// newlines to a blank line, trimming the result. Text that is already in
// that form — most posts — is returned as it is.
func collapseSpace(s string) string {
	if isCollapsed(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	spacePending := false
	newlines := 0
	for _, r := range s {
		switch r {
		case ' ', '\t', '\r':
			spacePending = true
		case '\n':
			newlines++
			spacePending = false
		default:
			if newlines > 0 {
				if newlines >= 2 {
					b.WriteString("\n\n")
				} else {
					b.WriteByte('\n')
				}
				newlines = 0
			} else if spacePending {
				b.WriteByte(' ')
			}
			spacePending = false
			b.WriteRune(r)
		}
	}
	return strings.TrimSpace(b.String())
}

// collapseCheck marks the bytes isCollapsed has to look at.
var collapseCheck = func() (check [256]bool) {
	for c := range check {
		check[c] = c >= utf8.RuneSelf || c == '\t' || c == '\r' || c == ' ' || c == '\n'
	}
	return check
}()

// isCollapsed reports whether collapseSpace would return s unchanged, for
// ASCII s (anything else is left to collapseSpace, which also re-encodes
// invalid UTF-8): blanks are single spaces between two visible characters,
// newlines come at most two in a row, and neither end is white space.
func isCollapsed(s string) bool {
	if s == "" {
		return true
	}
	first, last := s[0], s[len(s)-1]
	if first >= utf8.RuneSelf || last >= utf8.RuneSelf ||
		asciiClass[first] == clsSpace || asciiClass[last] == clsSpace {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !collapseCheck[c] {
			continue // a visible ASCII byte: most of them
		}
		switch {
		case c >= utf8.RuneSelf, c == '\t', c == '\r':
			return false
		case c == ' ':
			// The ends are not blank, so s[i-1] and s[i+1] exist.
			if p, n := s[i-1], s[i+1]; p == ' ' || p == '\n' || n == '\n' {
				return false
			}
		case c == '\n':
			if i >= 2 && s[i-1] == '\n' && s[i-2] == '\n' {
				return false
			}
		}
	}
	return true
}
