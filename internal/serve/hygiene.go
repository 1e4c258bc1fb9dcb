// Serving hygiene for the /related hot path: the result cache,
// singleflight collapsing, and bounded admission of internal/cache,
// as stages of the one path every /related request takes. Each stage is
// opt-in through Config and a no-op when off, so a server with the
// knobs at their zero values runs the same code and writes the same
// bytes as one with them on.
//
// Stage order on a request (see DESIGN.md §10):
//
//	cache.Get ── hit: write cached bytes, done (no admission cost)
//	   │ miss, or no cache
//	singleflight.Do ── follower: wait for the leader's entry
//	   │ leader, or no singleflight
//	admission.Acquire ── queue full: typed 503 + Retry-After
//	   │ slot, or no admission
//	engine.Query → encode once → cache.Put (complete answers only)
//
// Correctness is carried by the epoch in the cache key (the engine's
// Epoch: a pipeline's mutation counter, a coordinator's fleet-wide
// cache epoch): any Add/commit/load — and, fleet-side, any degradation
// — advances it, so stale entries become unreachable instead of being
// hunted down.
package serve

import (
	"context"
	"net/http"

	"repro/internal/cache"
	"repro/internal/obs"
)

// layerStats snapshots the layers that are on, for GET /stats.
func (s *Server) layerStats() cache.LayerStats {
	var ls cache.LayerStats
	if s.cache != nil {
		cs, fs := s.cache.Stats(), s.flight.Stats()
		ls.Cache, ls.Singleflight = &cs, &fs
	}
	if s.admit != nil {
		as := s.admit.Stats()
		ls.Admission = &as
	}
	return ls
}

// answer produces the encoded entry for a validated /related request.
// key carries the engine epoch read at request start. The engine's
// context — the request's, carrying its trace — is built past the
// cache, so a hit creates none.
func (s *Server) answer(ctx context.Context, key cache.Key, sc *statusWriter) (cache.Entry, error) {
	tr := sc.tr
	if s.cache != nil {
		e, ok := s.cache.Get(key)
		sc.mark(stageCache)
		if ok {
			sc.hit = true
			if tr != nil {
				tr.Event("cache.hit", obs.N("epoch", int64(key.Epoch)))
			}
			return e, nil
		}
		if tr != nil {
			tr.Event("cache.miss", obs.N("epoch", int64(key.Epoch)))
		}
	}
	if tr != nil {
		ctx = obs.WithTrace(ctx, tr)
	}
	if s.flight == nil {
		// The work belongs to exactly one request and stays cancelable,
		// which is also what lets a queued admission wait unwind when its
		// client gives up.
		return s.compute(ctx, key, sc)
	}
	// The leader's work is shared by followers whose own requests are
	// still live, so the compute detaches from the leader's cancellation
	// (values — the trace — are preserved); one impatient client must not
	// poison the herd.
	cctx := context.WithoutCancel(ctx)
	e, err, leader := s.flight.Do(ctx, key, func() (cache.Entry, error) { return s.compute(cctx, key, sc) })
	if leader {
		sc.mark(stageCache) // the Put, and the flight's bookkeeping
		return e, err
	}
	sc.mark(stageSingleflight)
	if tr != nil && err == nil {
		tr.Event("singleflight.follower")
	}
	return e, err
}

// compute takes an admission slot, asks the engine, and serializes the
// response once into the exact bytes writeJSON would produce. It runs
// on the goroutine of the request sc belongs to.
func (s *Server) compute(ctx context.Context, key cache.Key, sc *statusWriter) (cache.Entry, error) {
	if s.admit != nil {
		err := s.admit.Acquire(ctx)
		sc.mark(stageAdmission)
		if err != nil {
			return cache.Entry{}, err
		}
		defer s.admit.Release()
	}
	if s.testHookCompute != nil {
		s.testHookCompute()
	}
	ans, err := s.eng.Query(ctx, key.Doc, key.K, key.Explain)
	sc.mark(stageEngine)
	if err != nil {
		return cache.Entry{}, err
	}
	body, err := encodeRelated(key, ans)
	sc.mark(stageEncode)
	if err != nil {
		return cache.Entry{}, err
	}
	entry := cache.Entry{Body: body, Status: http.StatusOK, Results: len(ans.Results), Partial: ans.Partial}
	// Store only complete answers: a degraded merge must never be
	// replayed as the complete one (it flows through singleflight to
	// followers, then dies). The entry goes under the epoch this request
	// read before the engine did, and only requests that read the same
	// epoch probe that key — requests that overlapped whatever commit
	// lands during this flight, each of which may see either prefix. So a
	// commit inside the flight needs no re-check here
	// (TestHistoriesMatchModel).
	if s.cache != nil && !entry.Partial {
		s.cache.Put(key, entry)
	}
	return entry, nil
}
