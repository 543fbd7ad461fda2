// Package sources implements the data sources of the THEMIS evaluation
// (§7): synthetic gaussian / uniform / exponential / mixed value streams
// with mean 50, a synthetic PlanetLab-like CPU/memory trace generator
// standing in for the CoTop dataset, and bursty rate modulation
// ("10% of the time they generate tuples at 10× their normal rate", §7.4).
//
// A Source converts a tuple rate and a value generator into timestamped
// batches (Table 2: e.g. "400 tuples/sec in 5 batches/sec of 80
// tuples/batch per source"). SIC assignment happens downstream, at the
// node that receives the source stream (see internal/node), because Eq. 1
// needs the per-STW tuple count that only the receiving node estimates.
package sources

import (
	"math/rand"

	"repro/internal/stream"
)

// Dataset enumerates the value distributions of the evaluation (§7:
// "The data in the synthetic dataset follows either a gaussian, uniform
// or exponential distribution, with a mean of 50. We also use a mixed
// synthetic dataset... The real-world dataset are measurements of CPU and
// memory-related utilisation from PlanetLab nodes").
type Dataset int

const (
	Gaussian Dataset = iota
	Uniform
	Exponential
	Mixed
	PlanetLab
)

// String names the dataset as in the paper's figure legends.
func (d Dataset) String() string {
	switch d {
	case Gaussian:
		return "gaussian"
	case Uniform:
		return "uniform"
	case Exponential:
		return "exponential"
	case Mixed:
		return "mixed"
	case PlanetLab:
		return "planetlab"
	default:
		return "unknown"
	}
}

// AllDatasets lists the datasets in the order the paper's figures use.
var AllDatasets = []Dataset{Gaussian, Uniform, Exponential, Mixed, PlanetLab}

// ValueGen fills the payload of one tuple. Implementations carry state
// (e.g. the autoregressive PlanetLab trace) and are not safe for
// concurrent use; each Source owns its generator.
type ValueGen interface {
	Fill(ts stream.Time, v []float64)
}

// GenFunc adapts a function to the ValueGen interface for stateless
// generators.
type GenFunc func(ts stream.Time, v []float64)

// Fill implements ValueGen.
func (f GenFunc) Fill(ts stream.Time, v []float64) { f(ts, v) }

// NewValueGen builds a single-field generator for the given dataset with
// the paper's mean of 50. PlanetLab maps to a CPU-utilisation trace.
func NewValueGen(d Dataset, rng *rand.Rand) ValueGen {
	switch d {
	case Gaussian:
		return GenFunc(func(_ stream.Time, v []float64) {
			v[0] = 50 + 15*rng.NormFloat64()
		})
	case Uniform:
		return GenFunc(func(_ stream.Time, v []float64) {
			v[0] = rng.Float64() * 100
		})
	case Exponential:
		return GenFunc(func(_ stream.Time, v []float64) {
			v[0] = rng.ExpFloat64() * 50
		})
	case Mixed:
		gens := []ValueGen{
			NewValueGen(Gaussian, rng),
			NewValueGen(Uniform, rng),
			NewValueGen(Exponential, rng),
		}
		return GenFunc(func(ts stream.Time, v []float64) {
			gens[rng.Intn(len(gens))].Fill(ts, v)
		})
	case PlanetLab:
		t := NewTrace(rng, 0)
		return GenFunc(func(ts stream.Time, v []float64) {
			v[0] = t.CPU(ts)
		})
	default:
		panic("sources: unknown dataset")
	}
}

// BurstConfig modulates a source's rate: during a burst the rate is
// multiplied by Factor; each wall-clock second is a burst with
// probability Prob (§7.4: Factor 10, Prob 0.1).
type BurstConfig struct {
	Prob   float64
	Factor float64
}

// DefaultBurst is the paper's burstiness setting (§7.4).
var DefaultBurst = BurstConfig{Prob: 0.1, Factor: 10}

// Source generates timestamped tuple batches at a configured rate.
//
// The burst generator is seeded lazily: New records the seed and the
// first burst decision builds the RNG, so a source whose Burst stays nil
// never allocates one (a math/rand source is ~4.9 KB, which adds up over
// tens of thousands of steady sources). Setting Burst after New — as
// the engine does — yields exactly the sequence an eagerly seeded RNG
// would.
type Source struct {
	ID    stream.SourceID
	Query stream.QueryID
	Frag  stream.FragID
	Port  int

	// Rate is the steady tuple rate per second; BatchesPerSec controls
	// batch granularity (Table 2).
	Rate          float64
	BatchesPerSec float64
	// Arity is the payload width; Gen fills each tuple's payload.
	Arity int
	Gen   ValueGen
	// Burst, when non-nil, enables bursty emission (§7.4).
	Burst *BurstConfig

	seed       int64
	rng        *rand.Rand // burst decisions; nil until the first one
	carry      float64    // fractional tuples carried between intervals
	burstUntil stream.Time
	burstNext  stream.Time // next burst decision boundary
	bursting   bool
}

// New constructs a source. rate and batchesPerSec must be positive; arity
// must be at least 1.
func New(id stream.SourceID, q stream.QueryID, f stream.FragID, port int,
	rate, batchesPerSec float64, arity int, gen ValueGen, seed int64) *Source {
	if rate <= 0 || batchesPerSec <= 0 || arity < 1 {
		panic("sources: invalid source configuration")
	}
	return &Source{
		ID: id, Query: q, Frag: f, Port: port,
		Rate: rate, BatchesPerSec: batchesPerSec, Arity: arity,
		Gen: gen, seed: seed,
	}
}

// rateAt reports the instantaneous rate at time t, applying burst
// modulation with per-second burst decisions.
func (s *Source) rateAt(t stream.Time) float64 {
	if s.Burst == nil {
		return s.Rate
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	for t >= s.burstNext {
		s.bursting = s.rng.Float64() < s.Burst.Prob
		s.burstNext += stream.Time(stream.Second)
	}
	if s.bursting {
		return s.Rate * s.Burst.Factor
	}
	return s.Rate
}

// Sink consumes the batches a source emits. It is an interface rather
// than a callback so the per-tick hot path passes a persistent receiver
// (the node) instead of constructing a capturing closure per source per
// tick — the closure would escape into Emit and allocate every interval.
type Sink interface {
	// Accept takes ownership of one emitted batch.
	Accept(s *Source, b *stream.Batch)
}

// SinkFunc adapts a function to the Sink interface for tests and tools.
type SinkFunc func(s *Source, b *stream.Batch)

// Accept implements Sink.
func (f SinkFunc) Accept(s *Source, b *stream.Batch) { f(s, b) }

// Emit generates the batches for the interval [from, to) and passes each
// to sink in timestamp order. Tuple counts follow the configured rate with
// fractional carry, so long-run counts are exact; tuple timestamps are
// spread evenly across each batch's sub-interval. Emitted tuples carry
// SIC 0 — the receiving node assigns Eq. (1) values per slide.
//
// Batches are drawn from pool when it is non-nil; the sink (or whoever
// it hands the batch to) owns them and must Release them after their
// last use. A nil pool falls back to plain allocation.
func (s *Source) Emit(from, to stream.Time, pool *stream.Pool, sink Sink) {
	if to <= from {
		return
	}
	interval := float64(to.Sub(from)) / 1000.0 // seconds
	nBatches := int(s.BatchesPerSec*interval + 0.5)
	if nBatches < 1 {
		nBatches = 1
	}
	per := float64(to-from) / float64(nBatches)
	for i := 0; i < nBatches; i++ {
		b0 := from + stream.Time(float64(i)*per)
		b1 := from + stream.Time(float64(i+1)*per)
		if i == nBatches-1 {
			b1 = to
		}
		rate := s.rateAt(b0)
		want := rate*float64(b1-b0)/1000.0 + s.carry
		n := int(want)
		s.carry = want - float64(n)
		if n == 0 {
			continue
		}
		var b *stream.Batch
		if pool != nil {
			b = pool.Get(s.Query, s.Frag, s.ID, b0, n, s.Arity)
		} else {
			b = stream.NewBatch(s.Query, s.Frag, s.ID, b0, n, s.Arity)
		}
		b.Port = s.Port
		span := float64(b1 - b0)
		for j := 0; j < n; j++ {
			ts := b0 + stream.Time(span*float64(j)/float64(n))
			b.Tuples[j].TS = ts
			s.Gen.Fill(ts, b.Tuples[j].V)
		}
		sink.Accept(s, b)
	}
}
