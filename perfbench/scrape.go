package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"dssddi/internal/obs"
	"dssddi/internal/router"
	"dssddi/internal/serve"
)

// counters are the program's always-on counters, summed over the
// fleet. Per-layer counter metrics are deltas between two scrapes.
type counters struct {
	cacheHits, cacheMisses int64
	batches, batchReqs     int64
	sheds, reembeds        int64
	applies, stale         int64
	walSyncs, walCkpts     int64
	walAppend              obs.HistogramSnapshot
	fanouts, retries       int64
	replicaReads, repairs  int64
	quorumFailures         int64
	residentBytes          int64
}

func scrape(f *fleet) (counters, error) {
	var c counters
	for i, b := range f.backends {
		base := "http://" + b.addr
		var m serve.Metrics
		if err := getJSON(base+"/metricsz", &m); err != nil {
			return c, fmt.Errorf("backend %d metricsz: %w", i, err)
		}
		c.cacheHits += m.SuggestCache.Hits
		c.cacheMisses += m.SuggestCache.Misses
		c.batches += m.Batching.Batches
		c.batchReqs += m.Batching.Requests
		c.sheds += m.Sheds
		c.reembeds += m.Registry.Reembeds
		c.applies += m.Registry.ReplicaApplies
		c.stale += m.Registry.ReplicaStale
		c.residentBytes += m.Memory.ModelBytes + m.Memory.RegistryEmbeddingBytes
		if m.WAL == nil {
			continue
		}
		c.walSyncs += m.WAL.Syncs
		c.walCkpts += m.WAL.Checkpoints
		h, err := scrapeHistogram(base+"/metricsz?format=prometheus", "dssddi_wal_append_duration_seconds")
		if err != nil {
			return c, fmt.Errorf("backend %d: %w", i, err)
		}
		c.walAppend.Add(h)
	}
	if f.rt != nil {
		var m router.Metrics
		if err := getJSON(f.frontURL()+"/metricsz", &m); err != nil {
			return c, fmt.Errorf("router metricsz: %w", err)
		}
		c.fanouts = m.ReplicationFanouts
		c.retries = m.Retries
		c.replicaReads = m.ReplicaReads
		c.repairs = m.ReadRepairs
		c.quorumFailures = m.QuorumFailures
	}
	return c, nil
}

// scrapeHistogram reads one histogram family from a Prometheus
// exposition back into the fixed bucket layout it was rendered from.
func scrapeHistogram(url, family string) (obs.HistogramSnapshot, error) {
	var h obs.HistogramSnapshot
	resp, err := http.Get(url)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	set, err := obs.ParseProm(resp.Body)
	if err != nil {
		return h, fmt.Errorf("parse %s: %w", url, err)
	}
	type bucket struct {
		le  float64
		cum int64
	}
	var bs []bucket
	for _, s := range set.Series {
		if s.Name != family+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			return h, fmt.Errorf("%s bucket le %q: %w", family, s.Labels["le"], err)
		}
		bs = append(bs, bucket{le, int64(s.Value)})
	}
	if len(bs) != obs.NumBuckets {
		return h, fmt.Errorf("%s: %d buckets, want %d", family, len(bs), obs.NumBuckets)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	var prev int64
	for i, b := range bs {
		if i < obs.NumBuckets-1 && math.Abs(b.le-obs.BucketUpperSeconds(i)) > 1e-12 {
			return h, fmt.Errorf("%s: bucket %d bound %v, want %v", family, i, b.le, obs.BucketUpperSeconds(i))
		}
		h.Buckets[i] = b.cum - prev
		prev = b.cum
	}
	h.Count = prev
	return h, nil
}

// sub returns the counter deltas c - before.
func (c counters) sub(before counters) counters {
	d := c
	d.cacheHits -= before.cacheHits
	d.cacheMisses -= before.cacheMisses
	d.batches -= before.batches
	d.batchReqs -= before.batchReqs
	d.sheds -= before.sheds
	d.reembeds -= before.reembeds
	d.applies -= before.applies
	d.stale -= before.stale
	d.walSyncs -= before.walSyncs
	d.walCkpts -= before.walCkpts
	for i := range d.walAppend.Buckets {
		d.walAppend.Buckets[i] -= before.walAppend.Buckets[i]
	}
	d.walAppend.Count -= before.walAppend.Count
	d.walAppend.SumNs -= before.walAppend.SumNs
	d.fanouts -= before.fanouts
	d.retries -= before.retries
	d.replicaReads -= before.replicaReads
	d.repairs -= before.repairs
	d.quorumFailures -= before.quorumFailures
	return d
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
