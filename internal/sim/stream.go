package sim

// FaultStream is an open-ended, seeded source of faults: where a FaultPlan
// scripts one finite run, a stream describes perpetual churn — nodes keep
// crashing and restarting forever at a given rate, the self-stabilization
// regime of Herman & Tixeuil rather than the terminating-experiment regime
// of a scripted plan. Drivers that run a protocol as an unbounded sequence
// of engine runs (internal/soak) consume the stream one bounded window at a
// time via Plan; every draw is a pure function of (Seed, epoch, node), so
// any window can be re-materialized independently — there is no cursor to
// keep in sync, two consumers of one stream see the same faults, and the
// stream composes with the engines' GOMAXPROCS-invariance: a fixed seed
// reproduces the same unbounded fault script byte-for-byte.
type FaultStream struct {
	// Seed drives every draw; windows are pure functions of (Seed, epoch).
	Seed int64
	// Loss, Dup and Reorder are copied into every materialized window.
	Loss    float64
	Dup     float64
	Reorder int64
	// CrashRate is the per-node probability of starting one bounded outage
	// inside a window.
	CrashRate float64
	// MinOutage and MaxOutage bound the outage length in virtual time
	// units. A zero-length draw (MinOutage 0) crashes and rejoins the node
	// inside the same tick. The stream models sustained bounded churn;
	// permanent departures are the consuming driver's business.
	MinOutage, MaxOutage int64
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix used to
// derive independent uniform draws from (seed, epoch, node, dim) without any
// sequential RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns a uniform [0,1) variate for the given coordinates.
func (s *FaultStream) draw(epoch int64, node, dim int) float64 {
	x := splitmix64(uint64(s.Seed) ^ splitmix64(uint64(epoch)*0x9E3779B97F4A7C15^uint64(node)<<20^uint64(dim)))
	return float64(x>>11) / (1 << 53)
}

// drawInt returns a uniform integer in [0, n) for the given coordinates.
func (s *FaultStream) drawInt(epoch int64, node, dim int, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.draw(epoch, node, dim) * float64(n))
}

// Plan materializes the stream's faults for one bounded window: a FaultPlan
// an engine run can consume, carrying the stream's message-fault rates and
// a fresh set of bounded outages among the live nodes. Crash times fall in
// [1, horizon/2] and restarts at most MaxOutage later. An engine run may
// end before a restart fires (the synchronous engine quiesces once every
// node is done, even with a restart pending); a driver that runs the plan
// as several engine runs re-aligns it with FaultPlan.Shifted, which
// carries such a window into its next engine run. live may be nil, meaning every node of an n-node network is
// eligible; epoch salts both the draws and the materialized plan's fault
// RNG, so consecutive windows fault differently.
func (s *FaultStream) Plan(epoch int64, n int, live []bool, horizon int64) *FaultPlan {
	if horizon < 4 {
		horizon = 4
	}
	plan := &FaultPlan{
		Seed:    s.Seed ^ (epoch+1)*0x2545F4914F6CDD1D,
		Loss:    s.Loss,
		Dup:     s.Dup,
		Reorder: s.Reorder,
	}
	maxLen := s.MaxOutage
	if maxLen < s.MinOutage {
		maxLen = s.MinOutage
	}
	for v := 0; v < n; v++ {
		if live != nil && !live[v] {
			continue
		}
		if s.draw(epoch, v, 0) >= s.CrashRate {
			continue
		}
		at := 1 + s.drawInt(epoch, v, 1, horizon/2)
		length := s.MinOutage + s.drawInt(epoch, v, 2, maxLen-s.MinOutage+1)
		plan.Crashes = append(plan.Crashes, Crash{Node: v, At: at, RestartAt: at + length})
	}
	return plan
}
