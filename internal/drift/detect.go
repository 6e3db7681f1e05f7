package drift

import (
	"math"
	"sort"

	"repro/internal/compress"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Profile is the structural + cost shape of a workload at a point in time:
// per-template shares of total weighted cost. The daemon records a Profile of
// the window at each successful tune (the "tuned baseline") and scores later
// windows against it to decide whether the deployed configuration has gone
// stale.
type Profile struct {
	// shares maps template signature -> share of total freq·cost mass.
	shares map[string]float64
	// sigs lists shares' keys in first-seen (query) order, so sums over
	// them do not depend on Go's map order.
	sigs []string
}

// CostFunc prices one execution of a query; it is typically a closure over a
// what-if optimizer's BaseCost. A nil CostFunc weights templates by
// frequency alone.
type CostFunc func(q workload.Query) float64

// NewProfile summarizes a workload into per-template cost shares. Templates
// are identified by compress.TemplateSignature, so two windows with the same
// structure but different frequencies still align template-by-template.
func NewProfile(w *workload.Workload, cost CostFunc) *Profile {
	p := &Profile{shares: make(map[string]float64)}
	if w == nil {
		return p
	}
	var total float64
	for _, q := range w.Queries {
		c := 1.0
		if cost != nil {
			c = cost(q)
			if !(c > 0) || math.IsInf(c, 1) { // NaN, zero, negative, +Inf
				c = 1.0
			}
		}
		mass := float64(q.Freq) * c
		sig := compress.TemplateSignature(q)
		if _, ok := p.shares[sig]; !ok {
			p.sigs = append(p.sigs, sig)
		}
		p.shares[sig] += mass
		total += mass
	}
	if total > 0 {
		for sig := range p.shares {
			p.shares[sig] /= total
		}
	}
	return p
}

// Score quantifies drift between two profiles; the daemon's status reports
// it as is.
type Score = telemetry.DriftScore

// Compare scores the drift from baseline b to current cur. A nil or empty
// baseline scores 1 against any non-empty current profile (everything is
// new), and 0 against an empty one.
func Compare(b, cur *Profile) Score {
	if b == nil {
		b = &Profile{}
	}
	if cur == nil {
		cur = &Profile{}
	}
	bs, cs := b.shares, cur.shares
	if len(bs) == 0 && len(cs) == 0 {
		return Score{}
	}
	if len(bs) == 0 || len(cs) == 0 {
		return Score{Fingerprint: 1, CostShift: 1, Score: 1}
	}
	// Sum in each profile's first-seen order: float addition is not
	// associative, and the sum is compared to the drift threshold.
	inter := 0
	var tv float64
	for _, sig := range b.sigs {
		share := bs[sig]
		if c, ok := cs[sig]; ok {
			inter++
			tv += math.Abs(share - c)
		} else {
			tv += share
		}
	}
	for _, sig := range cur.sigs {
		if _, ok := bs[sig]; !ok {
			tv += cs[sig]
		}
	}
	union := len(bs) + len(cs) - inter
	s := Score{
		Fingerprint: 1 - float64(inter)/float64(union),
		CostShift:   tv / 2,
	}
	s.Score = math.Max(s.Fingerprint, s.CostShift)
	return s
}

// Top returns the n highest-share template signatures of the profile, for
// journaled drift evidence. Ties break by signature order.
func (p *Profile) Top(n int) []string {
	if p == nil || len(p.shares) == 0 || n <= 0 {
		return nil
	}
	sigs := append([]string(nil), p.sigs...)
	sort.Slice(sigs, func(i, j int) bool {
		si, sj := p.shares[sigs[i]], p.shares[sigs[j]]
		if si != sj {
			return si > sj
		}
		return sigs[i] < sigs[j]
	})
	if len(sigs) > n {
		sigs = sigs[:n]
	}
	return sigs
}
