package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/forum"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/segment"
)

// The tests in this file hold the scatter's shared index.Theta to its
// soundness argument (Group.gather): whatever order the legs of one
// probe run in, and however they overlap, the merged lists and the
// ranking are the unsharded matcher's bit for bit, and no Theta ever
// passes the merged list's n-th score. Group.gather walks its legs in
// shard order and a fleet coordinator's arrive as the network delivers
// them; here the legs are run by hand so the order is the test's.

// handScatter is one query's scatter with the legs under the test's
// control: the probes frozen on the home shard, as gather resolves them.
type handScatter struct {
	g           *Group
	doc, k, n   int
	home, local int
	probes      []match.ClusterQuery
}

func newHandScatter(g *Group, doc, k int) *handScatter {
	home, local, _ := g.dir.Lookup(doc)
	return &handScatter{g: g, doc: doc, k: k, n: g.cfg.ListDepth(k),
		home: home, local: local, probes: g.shards[home].QuerySegs(local)}
}

// leg is shard s's answer under thetas (nil: unbounded).
func (h *handScatter) leg(s int, thetas []index.Theta) [][]match.Result {
	excl := -1
	if s == h.home {
		excl = h.local
	}
	return h.g.shards[s].QueryClusterLists(h.probes, h.n, excl, thetas, nil)
}

// run answers the query with the legs in the given order — all at once,
// a goroutine each, when order is nil — over one shared []index.Theta.
func (h *handScatter) run(order []int) ([]match.Result, []MergedList, []index.Theta) {
	thetas := make([]index.Theta, len(h.probes))
	perShard := make([][][]match.Result, h.g.n)
	if order == nil {
		var wg sync.WaitGroup
		for s := range perShard {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				perShard[s] = h.leg(s, thetas)
			}(s)
		}
		wg.Wait()
	}
	for _, s := range order {
		perShard[s] = h.leg(s, thetas)
	}
	lists, scores := h.merge(perShard)
	return match.TopKScores(scores, h.k, h.doc), lists, thetas
}

func (h *handScatter) merge(perShard [][][]match.Result) ([]MergedList, map[int]float64) {
	clusters := make([]int, len(h.probes))
	for i, q := range h.probes {
		clusters[i] = q.Cluster
	}
	return h.g.dir.Merge(clusters, h.n, perShard, nil)
}

// checkThetas asserts the invariant every gather must leave behind: a
// Theta is at most its merged list's n-th score, and still 0 when that
// list is shorter than n (no leg held n units, so none proved a bound).
// lists must be untrimmed — a configuration without a score threshold.
// It returns how many thetas were raised.
func checkThetas(t *testing.T, ctx string, n int, lists []MergedList, thetas []index.Theta) (raised int) {
	t.Helper()
	for i := range thetas {
		th, items := thetas[i].Load(), lists[i].Items
		switch {
		case len(items) < n && th != 0:
			t.Fatalf("%s probe %d: theta %g over a merged list of %d < n = %d", ctx, i, th, len(items), n)
		case len(items) >= n && th > items[n-1].Score:
			t.Fatalf("%s probe %d: theta %g above the merged n-th score %g", ctx, i, th, items[n-1].Score)
		}
		if th > 0 {
			raised++
		}
	}
	return raised
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// homeAt returns a random order of n shards with home moved to position
// at.
func homeAt(rng *rand.Rand, n, home, at int) []int {
	order := rng.Perm(n)
	for i, s := range order {
		if s == home {
			order[i], order[at] = order[at], order[i]
		}
	}
	return order
}

// TestThetaLegOrders: every leg order at 1, 2 and 4 shards (24 at 4),
// home first / home last / random at 8, and all legs at once, each
// against the unsharded ranking, with the theta invariant checked after
// every gather.
func TestThetaLegOrders(t *testing.T) {
	docs := genDocs(t, forum.TechSupport, 200, 42)
	mr := match.NewMR("MR", docs, match.MRConfig{Seed: 7})
	rng := rand.New(rand.NewSource(5))
	for _, ns := range []int{1, 2, 4, 8} {
		g, err := NewGroup(mr, ns, 42)
		if err != nil {
			t.Fatalf("NewGroup(%d): %v", ns, err)
		}
		raised := 0
		for d := 0; d < mr.NumDocs(); d++ {
			const k = 5
			want := mr.Match(d, k)
			h := newHandScatter(g, d, k)
			orders := [][]int{nil} // concurrent
			if ns <= 4 {
				orders = append(orders, permutations(ns)...)
			} else {
				orders = append(orders, homeAt(rng, ns, h.home, 0), homeAt(rng, ns, h.home, ns-1), rng.Perm(ns))
			}
			for _, order := range orders {
				ctx := fmt.Sprintf("shards=%d doc=%d order=%v", ns, d, order)
				got, lists, thetas := h.run(order)
				sameResults(t, ctx, want, got)
				raised += checkThetas(t, ctx, h.n, lists, thetas)
			}
		}
		if raised == 0 {
			t.Errorf("shards=%d: no gather raised a theta; the test bounds nothing", ns)
		}
	}
}

// TestThetaTieAcrossShards constructs the case a strict comparison
// exists for: two documents with equal scores straddle a merged list's
// n-th place from different shards, and the one that wins the place —
// the lower global id — sits on the leg that runs last, by which time
// the other legs have raised theta to exactly that score. Dropping it
// (rejecting s <= theta, not s < theta) would hand the place to the
// higher id. Every document of the corpus has a twin with the same text,
// so equal scores are everywhere; the test looks for straddles and fails
// if the corpus has none.
func TestThetaTieAcrossShards(t *testing.T) {
	docs := append(genDocs(t, forum.TechSupport, 100, 42), genDocs(t, forum.TechSupport, 100, 42)...)
	mr := match.NewMR("MR", docs, match.MRConfig{Seed: 7})
	for _, ns := range []int{2, 4} {
		g, err := NewGroup(mr, ns, 42)
		if err != nil {
			t.Fatalf("NewGroup(%d): %v", ns, err)
		}
		straddles, atTheta := 0, 0
		for d := 0; d < mr.NumDocs(); d++ {
			for _, k := range []int{1, 2, 3} {
				// One entry deeper than the query cuts, unbounded: the tie
				// shows as equal scores at places n and n+1.
				deep := newHandScatter(g, d, k)
				deep.n++
				perShard := make([][][]match.Result, ns)
				for s := range perShard {
					perShard[s] = deep.leg(s, nil)
				}
				lists, _ := deep.merge(perShard)
				h := newHandScatter(g, d, k)
				for i, ml := range lists {
					if len(ml.Items) <= h.n || ml.Items[h.n-1].Score != ml.Items[h.n].Score {
						continue
					}
					in, out := ml.Items[h.n-1], ml.Items[h.n]
					last := g.Route(in.DocID)
					if last == g.Route(out.DocID) {
						continue
					}
					straddles++
					order := []int{}
					for s := 0; s < ns; s++ {
						if s != last {
							order = append(order, s)
						}
					}
					order = append(order, last)
					ctx := fmt.Sprintf("shards=%d doc=%d k=%d probe=%d tie %d|%d at %g", ns, d, k, i, in.DocID, out.DocID, in.Score)
					got, merged, thetas := h.run(order)
					sameResults(t, ctx, mr.Match(d, k), got)
					if kept := merged[i].Items[h.n-1]; kept != in {
						t.Fatalf("%s: the n-th place went to %v", ctx, kept)
					}
					checkThetas(t, ctx, h.n, merged, thetas)
					if thetas[i].Load() == in.Score {
						atTheta++
					}
				}
			}
		}
		if straddles == 0 || atTheta == 0 {
			t.Errorf("shards=%d: %d ties straddle an n-th place, %d of them with theta at the tied score; the test needs both", ns, straddles, atTheta)
		}
	}
}

// addsBetweenLegs answers doc's query one leg at a time, committing one
// of extra to the group after every leg, and requires the merge over the
// bounded legs to equal the merge over unbounded legs taken at the same
// moments: an add between two legs moves the statistics pool and grows a
// shard a later leg scans, and neither may disturb a bound an earlier
// leg proved (the probes carry frozen factors). It returns the unused
// rest of extra.
func addsBetweenLegs(t *testing.T, g *Group, doc, k int, extra []*segment.Doc) []*segment.Doc {
	t.Helper()
	h := newHandScatter(g, doc, k)
	thetas := make([]index.Theta, len(h.probes))
	bounded, free := make([][][]match.Result, g.n), make([][][]match.Result, g.n)
	for s := 0; s < g.n; s++ {
		bounded[s], free[s] = h.leg(s, thetas), h.leg(s, nil)
		g.Add(extra[0])
		extra = extra[1:]
	}
	gotLists, gotScores := h.merge(bounded)
	wantLists, wantScores := h.merge(free)
	if !reflect.DeepEqual(gotLists, wantLists) || !reflect.DeepEqual(gotScores, wantScores) {
		t.Fatalf("doc %d with adds between legs: bounded merge %v, unbounded %v", doc, gotLists, wantLists)
	}
	checkThetas(t, fmt.Sprintf("doc %d with adds between legs", doc), h.n, gotLists, thetas)
	return extra
}
