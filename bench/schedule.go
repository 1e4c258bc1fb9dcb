package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/serve"
)

// topK is the k of every /related request.
const topK = 10

// workload is one traffic mix against one serving topology. closedRPS
// and openRPS size the phases in operations: they are constants, fixed
// once from the seed commit on the 2-core reference box (closedRPS at
// the closed-loop throughput there, openRPS at about 30% of it, which
// leaves room for a neighbour's burst without building a backlog) and
// never derived at run time, so two commits execute the identical
// schedule. read_hot_cached answers three times its closedRPS: its round
// is sized to ask for about 1900 distinct posts, which the 4096-entry
// cache holds with room to spare.
type workload struct {
	name         string
	why          string
	shards       int  // core.Config.Shards
	cacheEntries int  // serve.Config.CacheEntries
	zipf         bool // doc ids Zipf(1.1) over the collection instead of uniform
	addEvery     int  // every addEvery-th operation is an /add; 0 for a read-only workload
	closedRPS    int  // closed-loop operations per second of run time
	openRPS      int  // open-phase arrival rate
}

var workloads = []workload{
	{
		name: "read_uniform", closedRPS: 850, openRPS: 260,
		why: "uniform doc ids, cache off: every request runs Algorithm 1 and 2, so index and match do the work and cache does none",
	},
	{
		name: "read_hot_cached", cacheEntries: 4096, zipf: true, closedRPS: 17000, openRPS: 2500,
		why: "Zipf(1.1) doc ids, asked for again every round, with a 4096-entry cache: cache hits, so serve and cache do the work and index none",
	},
	{
		name: "mixed_write", cacheEntries: 4096, zipf: true, addEvery: 10, closedRPS: 850, openRPS: 300,
		why: "90% Zipf reads beside 10% adds: every add segments on the request path, takes the write locks and strands the whole cache",
	},
	{
		name: "sharded_read", shards: 4, closedRPS: 850, openRPS: 260,
		why: "the read_uniform queries through the 4-shard scatter/merge: its difference to read_uniform is the shard tax",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes is how much work one run does. Everything is a count, fixed
// before the clock starts.
type sizes struct {
	posts int // initial collection
	// The warm-up is the closed slice warmRounds times over, untimed: it
	// fills the result cache (with the very posts the rounds ask for),
	// the score pools and the heap.
	warmRounds int
	// The timed part of a run is rounds rounds, and every round sends the
	// same requests: a closed slice of the workload's traffic, then a
	// write slice of nothing but adds. A neighbour's burst on a shared
	// machine lasts from milliseconds to minutes: the more often a
	// request is repeated, and the further apart, the likelier one of its
	// repeats meets a quiet moment.
	rounds    int
	closedOps int // per round
	// The adds of the write slice go to the write side: the workload's own
	// server when its traffic has adds anyway, and otherwise a second
	// server of the same topology and knobs, so that a read-only
	// workload's server never takes a write and its answers can be held
	// against the oracle to the end. Adds are timed on their own because
	// beside reads they mostly wait for the read in flight to release the
	// lock, which times the read, and from all clients at once because
	// adds sent one by one to an otherwise idle machine time how long its
	// processors take to wake.
	writeOps int // per round
	// The write side has a warm-up of its own, closed loop and untimed: a
	// restored pipeline's slices are exactly full, so its first adds each
	// copy a structure to grow it (15 ms for the first, 3 ms for the
	// tenth, level from about the 300th).
	writeWarmOps int
	// The open phase runs in the per-layer pass only, once the rounds are
	// over.
	openOps   int
	openRPS   int
	setups    int // cold set-ups timed; setup_s is their median
	replayOps int // operations of the traced single-goroutine replay
	probes    int // doc ids re-requested by the correctness check
	// Each phase stops taking new operations once it has run twice as
	// long as it was sized for, so a machine several times slower than
	// the reference box still finishes inside the driver's time limit.
	// 0 means no limit.
	warmLimit, closedLimit, openLimit time.Duration
}

// fullSizes sizes a run whose rounds take about seconds together on the
// seed commit.
func fullSizes(w workload, seconds int) sizes {
	const rounds = 32
	closedS, openS := float64(seconds)/rounds, float64(seconds)/2
	limit := func(s float64) time.Duration { return time.Duration(2 * s * float64(time.Second)) }
	return sizes{
		posts:        10_000,
		warmRounds:   3,
		rounds:       rounds,
		closedOps:    int(float64(w.closedRPS) * closedS),
		writeOps:     24, // a few milliseconds' worth
		writeWarmOps: 300,
		openOps:      int(float64(w.openRPS) * openS),
		openRPS:      w.openRPS,
		setups:       3,
		replayOps:    400,
		probes:       64,
		warmLimit:    limit(3 * closedS), // its first pass fills an empty cache
		closedLimit:  limit(closedS),
		openLimit:    limit(openS),
	}
}

// smokeSizes is the tier-1 run: small enough for `go test`, large
// enough that every code path of the benchmark executes.
func smokeSizes() sizes {
	return sizes{posts: 300, warmRounds: 1, rounds: 2, closedOps: 100, writeOps: 10, writeWarmOps: 10, openOps: 200, openRPS: 1000, setups: 1, replayOps: 60, probes: 16}
}

type opKind uint8

const (
	opRelated opKind = iota
	opAdd
)

func (k opKind) path() string {
	if k == opAdd {
		return "/add"
	}
	return "/related"
}

// op is one scheduled request. doc is the reference post of a /related
// and the index into schedule.adds of an /add; body is the request
// payload, encoded before any clock starts.
type op struct {
	kind opKind
	doc  int
	body []byte
}

func relatedOp(doc int) op {
	return op{kind: opRelated, doc: doc, body: mustJSON(serve.RelatedRequest{DocID: doc, K: topK})}
}

// schedule is every operation of a run, drawn from the seed up front.
type schedule struct {
	writeWarm []op // adds only
	// One round. Every round sends it again, request for request: position
	// i of a slice is the same request in every round, and its latencies
	// differ only by what the machine did to them. That goes for the adds
	// as well: a text is added once a round, as a post copied into a
	// forum thirty-two times would be, and each copy gets an id of its
	// own.
	closed []op
	write  []op // adds only
	open   []op
	adds   []string // texts of the /add operations, in schedule order
	hash   string   // SHA-256 over every operation in the order above
}

// drawSchedule materialises the workload's operations for seed. Which
// posts are the popular ones belongs to the forum and not to the sample
// of its traffic: Zipf ranks map to document ids through a permutation
// drawn from corpusSeed (a tenth of all Zipf requests are for the top
// post, and with another top post per seed its cost alone moved every
// figure by several percent), and seed draws the requests. The texts of
// the adds are the posts that follow the initial collection.
func drawSchedule(seed int64, w workload, sz sizes) schedule {
	salt := int64(0)
	for _, c := range w.name {
		salt = salt*131 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed*1_000_033 + salt))
	perm := rand.New(rand.NewSource(corpusSeed)).Perm(sz.posts)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.posts-1))
	var s schedule
	h := sha256.New()
	// draw returns n operations, every addEvery-th an add.
	draw := func(n, addEvery int) []op {
		ops := make([]op, n)
		for i := range ops {
			o := &ops[i]
			switch {
			case addEvery > 0 && i%addEvery == addEvery-1:
				text := postText(sz.posts + len(s.adds))
				*o = op{kind: opAdd, doc: len(s.adds), body: mustJSON(serve.AddRequest{Text: text})}
				s.adds = append(s.adds, text)
			case w.zipf:
				*o = relatedOp(perm[zipf.Uint64()])
			default:
				*o = relatedOp(rng.Intn(sz.posts))
			}
			var head [9]byte
			head[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(head[1:], uint64(len(o.body)))
			h.Write(head[:])
			h.Write(o.body)
		}
		return ops
	}
	s.writeWarm = draw(sz.writeWarmOps, 1)
	s.closed = draw(sz.closedOps, w.addEvery)
	s.write = draw(sz.writeOps, 1)
	s.open = draw(sz.openOps, w.addEvery)
	s.hash = hex.EncodeToString(h.Sum(nil))
	return s
}

// mustJSON encodes one of the bench's own request or report structs,
// which hold nothing json.Marshal can reject.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding %T: %v", v, err))
	}
	return b
}
