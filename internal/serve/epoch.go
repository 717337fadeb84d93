package serve

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"dssddi"
	"dssddi/internal/alerts"
	"dssddi/internal/obs"
)

// servingEpoch is one generation of the serving state: an immutable
// trained system plus everything derived from it — the interaction
// checker and the result caches. A hot reload builds a complete new
// epoch in the background and swaps one atomic pointer, so every
// request runs start to finish against exactly one epoch: the model it
// scores with, the cache it reads and fills, and the alerts it screens
// with all belong to the same generation. A request keeps the epoch it
// loaded alive until it returns; a retired epoch owns no goroutine, so
// the garbage collector reclaims it once the last such request is done.
// Nothing is shared between epochs except the patient registry, whose
// cached embeddings are tagged with the epoch they were computed
// against.
type servingEpoch struct {
	id      int64
	sys     *dssddi.System
	data    *dssddi.Data
	checker *alerts.Checker
	info    dssddi.SnapshotInfo
	// precision is the serving precision this epoch's system was
	// quantized to at build time ("f64" or "f32").
	// It is applied to the freshly loaded system before the epoch is
	// published, so a hot reload switches precision atomically with the
	// model and every response's X-Precision header is consistent with
	// its X-Epoch.
	precision string

	suggestCache *lruCache
	explainCache *lruCache

	// scoreCalls counts score-engine calls made on this epoch and
	// scoredPatients the patients they scored: a cold index suggest or
	// explain adds one to each, a /v1/scores request one and N.
	scoreCalls     atomic.Int64
	scoredPatients atomic.Int64
}

// newEpoch derives a serving epoch from a trained system, quantizing
// it to the given precision ("" means f64) before anything else is
// derived from it.
func (s *Server) newEpoch(sys *dssddi.System, precision string) (*servingEpoch, error) {
	data := sys.Data()
	if data == nil {
		return nil, fmt.Errorf("serve: system is not trained")
	}
	if err := sys.SetPrecision(precision); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	info, err := sys.SnapshotInfo()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	emb, err := sys.DrugRelationEmbeddings()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	names := make([]string, data.NumDrugs())
	for i := range names {
		names[i] = data.DrugName(i)
	}
	ep := &servingEpoch{
		id:        s.epochSeq.Add(1),
		sys:       sys,
		data:      data,
		checker:   alerts.NewChecker(data.Dataset().DDI, emb, names),
		info:      info,
		precision: sys.Precision(),
	}
	half := s.cfg.CacheSize / 2
	ep.suggestCache = newLRUCache(s.cfg.CacheSize-half, s.cfg.CacheShards)
	ep.explainCache = newLRUCache(half, s.cfg.CacheShards)
	return ep, nil
}

// suggest ranks the top-k drugs for a validated dataset patient on the
// calling goroutine through the streamed top-k engine, so the response
// is bitwise System.Suggest. A context that has already expired (a
// propagated deadline spent in the admission queue or while decoding)
// returns its error before the engine is touched. A sampled request
// records the engine call as its "score" span.
func (ep *servingEpoch) suggest(ctx context.Context, patient, k int) ([]dssddi.Suggestion, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	suggs, err := ep.sys.Suggest(patient, k)
	tr.Span("score", start)
	ep.countScore(1)
	return suggs, err
}

// countScore records one score-engine call over n patients.
func (ep *servingEpoch) countScore(n int) {
	ep.scoreCalls.Add(1)
	ep.scoredPatients.Add(int64(n))
}

// swap atomically replaces the serving model: it builds a complete new
// epoch from sys, re-embeds every registered patient against it, then
// publishes the epoch pointer. In-flight requests finish on the epoch
// they started with; requests arriving after the swap see only the new
// one. reloadMu (shared with Close) serializes swaps and guarantees a
// swap can never republish an epoch after Close retired the last one.
// An empty precision keeps the server's current one; a named precision
// becomes the server's precision for this and subsequent reloads.
func (s *Server) swap(sys *dssddi.System, precision string) (*servingEpoch, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.epoch.Load() == nil {
		return nil, fmt.Errorf("serve: server is closed")
	}
	if precision == "" {
		precision = s.precision
	}
	ep, err := s.newEpoch(sys, precision)
	if err != nil {
		return nil, err
	}
	s.precision = precision
	// Warm the registry against the new model before any request can
	// reach it, so the first post-swap suggest for a registered patient
	// does not pay the re-embed. Per-patient failures are recorded on
	// the entry, not fatal: the rest of the registry and the whole
	// index path keep serving.
	s.patients.reembedAll(ep)
	s.epoch.Store(ep)
	s.reloads.Add(1)
	return ep, nil
}

// Swap replaces the serving model with an already-loaded system and
// returns the new epoch id. The server's current precision is applied
// to the incoming system before publication.
func (s *Server) Swap(sys *dssddi.System) (int64, error) {
	ep, err := s.swap(sys, "")
	if err != nil {
		return 0, err
	}
	return ep.id, nil
}

// ReloadSnapshot loads a snapshot stream and swaps it in.
func (s *Server) ReloadSnapshot(r io.Reader) (int64, error) {
	sys, err := dssddi.Load(r)
	if err != nil {
		return 0, err
	}
	return s.Swap(sys)
}

func (s *Server) reloadFromPath(path, precision string) (*servingEpoch, error) {
	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		return nil, fmt.Errorf("serve: no snapshot path configured (set Config.SnapshotPath or pass one)")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := dssddi.Load(f)
	if err != nil {
		return nil, err
	}
	return s.swap(sys, precision)
}

// ReloadFromPath loads a snapshot file and swaps it in — the body of
// the /v1/admin/reload endpoint and the SIGHUP / -watch wiring in
// cmd/dssddi-serve. The server's current precision carries over.
func (s *Server) ReloadFromPath(path string) (int64, error) {
	ep, err := s.reloadFromPath(path, "")
	if err != nil {
		return 0, err
	}
	return ep.id, nil
}

// Epoch reports the current serving epoch id.
func (s *Server) Epoch() int64 {
	if ep := s.epoch.Load(); ep != nil {
		return ep.id
	}
	return 0
}
