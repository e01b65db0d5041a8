package attacks

import (
	"slices"

	"vpsec/internal/core"
)

// This file is the one place an attack trial is written down. The
// paper's model (Sec. V, Table II) makes every attack the same three
// predictor-state steps — train, modify, trigger — followed by an
// encode and a decode, so a trial is data: a list of steps and an
// observer, run by one executor (env.exec).

// role is a step's place in Table II's three-step pattern. It fixes the
// step's kernel: how many accesses it makes (the iteration count), and
// whether the dependent line it touches is re-evicted.
type role uint8

const (
	// train sets the entry: Options.TrainIters accesses (default the
	// confidence number), each re-evicting its dependent line.
	train role = iota
	// modify retrains the entry with a confidence count of accesses, or
	// resets it with one (Options.ResetModify).
	modify
	// trigger is the single observed access. Its dependent line stays
	// cached: that fill is the persistent channel's transient encode.
	trigger
)

// String names the role; it is also the kernel's program name.
func (r role) String() string {
	return [...]string{"train", "modify", "trigger"}[r]
}

// observer is how the receiver decodes a trial: what its trigger
// encodes into and how that is read back.
type observer uint8

const (
	latency observer = iota // timing-window: the trigger's own timed access
	reload                  // persistent: a reload probe of one probe line after the trigger
	ports                   // volatile: the trigger's port contention in its first cycles
	sampler                 // volatile: a co-runner on the sibling SMT thread times its windows
)

// channel is the channel the observer reads.
func (o observer) channel() core.Channel {
	switch o {
	case latency:
		return core.TimingWindow
	case reload:
		return core.Persistent
	}
	return core.Volatile
}

// datum is a word that may depend on the trial's case: its value in
// the unmapped and in the mapped case, or no word at all (set unset).
type datum struct {
	set bool
	of  [2]uint64 // unmapped, mapped
}

// word is the same value v in both cases.
func word(v uint64) datum { return datum{true, [2]uint64{v, v}} }

// words is unmapped in the unmapped case and mapped in the mapped one.
func words(unmapped, mapped uint64) datum { return datum{true, [2]uint64{unmapped, mapped}} }

// at is the datum's value in the mapped or unmapped case.
func (d datum) at(mapped bool) uint64 {
	if mapped {
		return d.of[1]
	}
	return d.of[0]
}

// flush selects the probe-region flush that runs before a step.
type flush uint8

const (
	noFlush      flush = iota
	ownProbes          // the probe region of the step's own party
	senderProbes       // the sender's probe region, whoever runs the step
)

// step is one program a trial time-slices onto the core, plus the
// harness work that runs before it.
type step struct {
	role   role
	party  core.Party
	target uint64 // the attacked load's address: knownAddr or secretAddr
	val    datum  // the word the program places at target
	skew   bool   // unmapped case: pcSkew NOPs move the attacked load to another index
	n      int    // access count in place of the role's: > 0 exactly n, < 0 the confidence number plus n

	write datum // the victim's secret write at secretAddr in the sender's mapping
	flush flush
}

// partyPID, partyPhys and partyResults place the parties' processes:
// the sender is pid 1 at physical offset 0 with its timings at
// resultsA, the receiver pid 2 at recvPhys with resultsB.
func partyPID(p core.Party) uint64 {
	if p == core.Sender {
		return 1
	}
	return 2
}

func partyPhys(p core.Party) uint64 {
	if p == core.Sender {
		return senderPhys
	}
	return recvPhys
}

func partyResults(p core.Party) uint64 {
	if p == core.Sender {
		return resultsA
	}
	return resultsB
}

// entry is one headline cell (a category read by one observer) or one
// Table II row. The trigger is its last step.
type entry struct {
	cat   core.Category
	obs   observer
	evict bool  // misses come from eviction sets, not FLUSH
	row   bool  // the Table II row entry of cat (see row)
	probe datum // reload: the probe line the receiver reloads
	steps []step

	// omit is what the evaluation leaves out of the case result.
	omit reports
}

// reports is a set of the results an evaluation fills in beyond the
// observations, the Welch test and the success rate. Each family's set
// is part of its published results: headline and SMT cells report all
// of them, eviction-set cells no cycles, and Table II rows only cycles.
type reports uint8

const (
	trialMetrics reports = 1 << iota // per-trial metrics and the t trajectory
	mwTest                           // the Mann-Whitney cross-check
	rate                             // cycles per trial and the transmission rate
	caseGauges                       // the end-of-case decision gauges
)

// The steps shared by several entries.
var (
	// trainTest is Fig. 3's R^KI, S^SI', R^KI: the receiver trains a
	// known index, the sender's secret-dependent access retrains the
	// same index iff mapped (aligned PCs), and the receiver's trigger
	// sees a misprediction (mapped) or a correct prediction.
	trainTest = []step{
		{role: train, party: core.Receiver, target: knownAddr, val: word(knownValue)},
		{role: modify, party: core.Sender, target: secretAddr, val: word(senderValue), skew: true},
		{role: trigger, party: core.Receiver, target: knownAddr, flush: ownProbes},
	}
	// testHit is Fig. 4's S^SD', —, R^KD: the sender trains its secret
	// bit, and the receiver's known-data trigger receives it as a
	// prediction. Mapped = the secret equals the known bit (correct
	// prediction, faster).
	testHit = []step{
		{role: train, party: core.Sender, target: secretAddr, val: words(secretAltBit, 0)},
		{role: trigger, party: core.Receiver, target: knownAddr, val: word(0), flush: ownProbes},
	}
	// trainHit is S^KD, —, S^SD': a known-data training, then the
	// victim's secret access at the same index is timed. Mapped = the
	// secret equals the known data.
	trainHit = []step{
		{role: train, party: core.Sender, target: secretAddr, val: word(knownValue)},
		{role: trigger, party: core.Sender, target: secretAddr, write: words(senderValue, knownValue), flush: ownProbes},
	}
	// spillOver is S^SD', S^SD'', S^SD': confidence-1 accesses to D',
	// one to D'', then a trigger on D'. Equal secrets reach the
	// confidence (correct prediction, fast); a different D'' resets it
	// (no prediction, slow).
	spillOver = []step{
		{role: train, party: core.Sender, target: secretAddr, val: word(senderValue), n: -1},
		{role: modify, party: core.Sender, target: secretAddr, n: 1, write: words(secretValue2, senderValue)},
		{role: trigger, party: core.Sender, target: secretAddr, write: word(senderValue), flush: ownProbes},
	}
	// fillUp is S^SD', —, S^SD'': confidence accesses to D', one to D''.
	// Equal secrets predict correctly (fast), different ones mispredict.
	fillUp = []step{
		{role: train, party: core.Sender, target: secretAddr, val: word(senderValue)},
		{role: trigger, party: core.Sender, target: secretAddr, write: words(secretValue2, senderValue), flush: ownProbes},
	}
	// modifyTest is S^SI', R^KI, S^SI', the flipped Train+Test: the
	// receiver's known-index accesses retrain the sender's entry iff the
	// indices collide (mapped: misprediction, slow).
	modifyTest = []step{
		{role: train, party: core.Sender, target: secretAddr, val: word(senderValue), skew: true},
		{role: modify, party: core.Receiver, target: knownAddr, val: word(knownValue)},
		{role: trigger, party: core.Sender, target: secretAddr, skew: true, flush: ownProbes},
	}
	// The volatile forms gate the trigger's transient burst on the
	// predicted value's parity (buildVolatileKernel).
	//
	// trainTestVolatile: the receiver's trained value (0x21) is odd and
	// the sender's (0x22) even, so the burst fires unless the modify
	// step retrained the shared entry.
	trainTestVolatile = []step{
		trainTest[0], trainTest[1],
		{role: trigger, party: core.Receiver, target: knownAddr},
	}
	// testHitVolatile: mapped = the trained secret bit is 1 (burst).
	testHitVolatile = []step{
		{role: train, party: core.Sender, target: secretAddr, val: words(0, 1)},
		{role: trigger, party: core.Receiver, target: knownAddr, val: word(0)},
	}
	// fillUpVolatile: the trigger's access to D'' receives D' as its
	// prediction; mapped = D' odd.
	fillUpVolatile = []step{
		{role: train, party: core.Sender, target: secretAddr, val: words(senderValue, secretValue2)},
		{role: trigger, party: core.Sender, target: secretAddr, write: word(senderValue)},
	}
)

// table lists every trial: the sixteen headline cells, then the row
// entries of the two categories whose Table II rows differ from their
// timing-window cell.
var table = []entry{
	{cat: core.TrainTest, obs: latency, steps: trainTest},
	// The reload probes the line the trigger's transient encode touches
	// when it mispredicts with the sender-trained value.
	{cat: core.TrainTest, obs: reload, steps: trainTest, probe: word(senderValue)},
	{cat: core.TrainTest, obs: ports, steps: trainTestVolatile},
	{cat: core.TrainTest, obs: sampler, steps: trainTest},
	{cat: core.TrainTest, obs: latency, evict: true, steps: trainTest, omit: rate},

	{cat: core.TestHit, obs: latency, steps: testHit},
	// Persistent: mapped = the probed candidate line equals the secret
	// (the transient array access cached it).
	{cat: core.TestHit, obs: reload, probe: word(secretAltBit), steps: []step{
		{role: train, party: core.Sender, target: secretAddr, val: words(0, secretAltBit)},
		testHit[1],
	}},
	{cat: core.TestHit, obs: ports, steps: testHitVolatile},
	// The sampler form first normalizes the secret-dependent cache
	// residue of the sender's training (the trained value selects the
	// probe line it touched), isolating the predictor channel.
	{cat: core.TestHit, obs: sampler, steps: []step{
		testHitVolatile[0],
		{role: trigger, party: core.Receiver, target: knownAddr, val: word(0), flush: senderProbes},
	}},

	{cat: core.TrainHit, obs: latency, steps: trainHit},
	{cat: core.SpillOver, obs: latency, steps: spillOver},

	{cat: core.FillUp, obs: latency, steps: fillUp},
	// Persistent: the trigger always predicts D' = 0x22, and mapped
	// means the receiver probes that candidate in the shared mapping
	// (unmapped: a line never touched).
	{cat: core.FillUp, obs: reload, probe: words(knownValue, senderValue), steps: []step{
		fillUp[0],
		{role: trigger, party: core.Sender, target: secretAddr, write: word(secretValue2), flush: ownProbes},
	}},
	{cat: core.FillUp, obs: ports, steps: fillUpVolatile},
	// Fill Up is internal interference: the sender's own trigger thread
	// runs against the sampler.
	{cat: core.FillUp, obs: sampler, steps: []step{
		fillUpVolatile[0],
		{role: trigger, party: core.Sender, target: secretAddr, write: word(senderValue), flush: ownProbes},
	}},

	{cat: core.ModifyTest, obs: latency, steps: modifyTest},

	// Train+Test's rows place the known word at the trigger's target,
	// since a sender-run trigger reads its own mapping; Train+Hit's rows
	// train the known data at the known address.
	{cat: core.TrainTest, obs: latency, row: true, steps: []step{
		trainTest[0], trainTest[1],
		{role: trigger, party: core.Receiver, target: knownAddr, val: word(knownValue), flush: ownProbes},
	}},
	{cat: core.TrainHit, obs: latency, row: true, steps: []step{
		{role: train, party: core.Receiver, target: knownAddr, val: word(knownValue)},
		trainHit[1],
	}},
}

// find returns the headline cell of cat read by o, with eviction-set
// misses when evict is set, or nil when the table has none.
func find(cat core.Category, o observer, evict bool) *entry {
	for i := range table {
		if t := &table[i]; t.cat == cat && t.obs == o && t.evict == evict && !t.row {
			return t
		}
	}
	return nil
}

// headline returns the cell Run evaluates for cat on ch: FLUSH misses
// and the channel's own observer, or nil.
func headline(cat core.Category, ch core.Channel) *entry {
	switch ch {
	case core.TimingWindow:
		return find(cat, latency, false)
	case core.Persistent:
		return find(cat, reload, false)
	case core.Volatile:
		return find(cat, ports, false)
	}
	return nil
}

// supportsChannel reports whether cat has a headline cell on ch.
func supportsChannel(cat core.Category, ch core.Channel) bool {
	return headline(cat, ch) != nil
}

// row returns Table II row v as an entry: its category's row entry, or
// its timing-window cell where the two coincide, with every step run by
// the party v's pattern names for its role. With no pid in the index,
// either party's access reaches the shared entry (Sec. V-B); the
// observation is the receiver's own timing for R-trigger rows and the
// sender's execution time for S-trigger rows (internal interference,
// Sec. II).
func row(v core.Variant) (entry, bool) {
	t := find(v.Category, latency, false)
	for i := range table {
		if table[i].row && table[i].cat == v.Category {
			t = &table[i]
		}
	}
	if t == nil {
		return entry{}, false
	}
	r := *t
	r.omit = trialMetrics | mwTest | caseGauges
	r.steps = slices.Clone(t.steps)
	for i := range r.steps {
		switch r.steps[i].role {
		case train:
			r.steps[i].party = v.Pattern.Train.Party
		case modify:
			r.steps[i].party = v.Pattern.Modify.Party
		case trigger:
			r.steps[i].party = v.Pattern.Trigger.Party
		}
	}
	return r, true
}

// exec runs one trial of entry t on the env: each step's harness work,
// then its program, and after the trigger the observer's decode. It
// returns the receiver's observation and the trial's simulated cycles.
func (e *env) exec(t *entry, mapped bool) (obs float64, cycles uint64, err error) {
	for i := range t.steps {
		s := &t.steps[i]
		if s.write.set {
			e.writeWord(senderPhys, secretAddr, s.write.at(mapped))
		}
		switch s.flush {
		case ownProbes:
			e.flushProbeRegion(partyPhys(s.party))
		case senderProbes:
			e.flushProbeRegion(senderPhys)
		}
		p, pid, phys := e.kernel(t, s, mapped), partyPID(s.party), partyPhys(s.party)
		var cyc uint64
		switch {
		case s.role == trigger && t.obs == ports:
			obs, cyc, err = e.portContention(pid, p, phys)
		case s.role == trigger && t.obs == sampler:
			obs, cyc, err = e.runWithSampler(pid, p, phys)
		default:
			var times []uint64
			times, cyc, err = e.runKernel(pid, p, phys)
			if err == nil && s.role == trigger {
				obs = float64(times[0])
			}
		}
		if err != nil {
			return 0, 0, err
		}
		cycles += cyc
	}
	if t.obs == reload {
		// The receiver reloads the probe line in the trigger's mapping;
		// the probe adds a fixed 64 cycles to the trial.
		lat, err := e.probeLatency(partyPhys(t.steps[len(t.steps)-1].party), t.probe.at(mapped))
		return float64(lat), cycles + 64, err
	}
	return obs, cycles, nil
}

// kernel is the program step s of entry t runs. The role fixes the
// access count and the dependent line's re-eviction; the entry picks
// the program family: eviction-set misses, or for a volatile trigger
// the kernel that gates a burst on the predicted parity.
func (e *env) kernel(t *entry, s *step, mapped bool) kernelParams {
	p := kernelParams{
		role: s.role, target: s.target, value: s.val.at(mapped), setValue: s.val.set,
		iters: 1, depBase: probeBase, flushDep: s.role != trigger,
		results: partyResults(s.party),
	}
	switch {
	case s.n > 0:
		p.iters = s.n
	case s.n < 0:
		p.iters = e.conf + s.n
	case s.role == train:
		p.iters = e.train
	case s.role == modify && !e.opt.ResetModify:
		p.iters = e.conf
	}
	if s.skew && !mapped {
		p.skew = pcSkew
	}
	switch {
	case t.evict:
		p.prog = evictionKernel
	case s.role == trigger && t.obs >= ports:
		p.prog = volatileKernel
	}
	return p
}
