package sim

import (
	"math"

	"rex/internal/core"
	"rex/internal/faultnet"
	"rex/internal/gossip"
)

// runEpoch advances every node by one merge-train-share-test round
// (Algorithm 2). Node steps fan out across the worker pool; everything
// order-sensitive — message delivery and the floating-point accumulation of
// epoch statistics — happens afterwards in ascending node-index order,
// exactly as the sequential engine would, so results are bit-identical for
// any Config.Workers.
func (eng *engine) runEpoch(e int) {
	cfg := &eng.cfg
	n := eng.n
	// Crash the nodes scheduled to fail this epoch (oracle failure
	// detection: neighbors immediately stop expecting their traffic).
	for id, at := range cfg.FailAt {
		if at == e && id >= 0 && id < n && eng.alive[id] {
			eng.alive[id] = false
			eng.res.FailedNodes++
		}
	}
	// Scenario churn: scheduled leaves and rejoins (FailAt generalized).
	// A rejoining node resumes with the state it left with and an empty
	// inbox; the arrival barrier catches its clock up naturally.
	if sc := cfg.Scenario; sc != nil {
		for _, c := range sc.Churn {
			if c.Node < 0 || c.Node >= n {
				continue
			}
			if c.Leave == e && eng.alive[c.Node] {
				eng.alive[c.Node] = false
				eng.res.FaultLog = append(eng.res.FaultLog,
					faultnet.Event{Epoch: e, From: c.Node, To: c.Node, Kind: faultnet.KindLeave})
			}
			if c.Rejoin == e && c.Rejoin > c.Leave && !eng.alive[c.Node] {
				eng.alive[c.Node] = true
				eng.res.FaultLog = append(eng.res.FaultLog,
					faultnet.Event{Epoch: e, From: c.Node, To: c.Node, Kind: faultnet.KindRejoin})
			}
		}
	}

	// --- parallel section: step every node against the previous epoch's
	// inboxes. A worker writes only results[i] and node-i state; payload
	// models/data from other nodes are read-only here.
	eng.pool.run(n, func(i int) {
		eng.stepNode(e, i, &eng.results[i])
	})

	// --- epoch barrier: deliver staged messages and fold accounting, both
	// in node-index order. Reorder-deferred messages stashed at the
	// previous barrier join first — they are older traffic, delivered one
	// epoch late — then this epoch's deliveries (with its own deferred
	// messages stashed for the next barrier).
	for i := 0; i < n; i++ {
		if len(eng.deferred[i]) > 0 {
			eng.inbox[i] = append(eng.inbox[i], eng.deferred[i]...)
			eng.deferred[i] = eng.deferred[i][:0]
		}
	}
	var epochStage StageTimes
	var epochBytes float64
	aliveCnt := 0
	for i := 0; i < n; i++ {
		if eng.alive[i] {
			aliveCnt++
		}
		r := &eng.results[i]
		epochStage = epochStage.add(r.stage)
		epochBytes += r.bytes
		for _, d := range r.out {
			if d.deferred {
				eng.deferred[d.to] = append(eng.deferred[d.to], d.msg)
			} else {
				eng.inbox[d.to] = append(eng.inbox[d.to], d.msg)
			}
		}
		if len(r.events) > 0 {
			eng.res.FaultLog = append(eng.res.FaultLog, r.events...)
		}
	}

	// --- record epoch stats ---
	stat := EpochStats{Epoch: e, MeanRMSE: math.NaN()}
	if (e+1)%cfg.TestEvery == 0 || e == cfg.Epochs-1 {
		eng.pool.run(n, func(i int) {
			eng.rmseOK[i] = eng.alive[i] && len(eng.nodes[i].Test) > 0
			if eng.rmseOK[i] {
				eng.rmse[i] = eng.nodes[i].TestRMSE()
			}
		})
		var sum float64
		cnt := 0
		for i := 0; i < n; i++ {
			if eng.rmseOK[i] {
				sum += eng.rmse[i]
				cnt++
			}
		}
		if cnt > 0 {
			stat.MeanRMSE = sum / float64(cnt)
			eng.res.FinalRMSE = stat.MeanRMSE
		}
	}
	var tm, tmax, bsum float64
	for i := 0; i < n; i++ {
		tm += eng.clocks[i]
		if eng.clocks[i] > tmax {
			tmax = eng.clocks[i]
		}
		bsum += eng.cumBytes[i]
	}
	stat.TimeMean = tm / float64(n)
	stat.TimeMax = tmax
	stat.BytesPerNode = bsum / float64(n)
	// Per-epoch means are over the nodes alive this epoch: only they did
	// work and moved bytes, and dividing by all n would under-report
	// per-alive-node stage times and traffic after crashes.
	perAlive := float64(aliveCnt)
	if aliveCnt == 0 {
		perAlive = 1 // all crashed: the sums are zero, keep the stats zero
	}
	stat.EpochBytesPerNode = epochBytes / perAlive
	stat.Stage = epochStage.scale(1 / perAlive)
	eng.stageSum = eng.stageSum.add(stat.Stage)
	eng.res.Series = append(eng.res.Series, stat)
	if cfg.AfterEpoch != nil {
		cfg.AfterEpoch(e)
	}
}

// stepNode runs node i's merge-train-share-test round for epoch e. It
// mutates only node-i state (nodes[i], encl[i], clocks[i], cumBytes[i],
// inbox[i], peakHeap[i], the node's pooled scratch) and writes the staged
// deliveries plus this node's epoch accounting into r (reusing r's slices
// from the previous epoch), so concurrent steps never race and the
// steady-state epoch loop stops allocating per-node result storage.
func (eng *engine) stepNode(e, i int, r *nodeResult) {
	r.stage = StageTimes{}
	r.bytes = 0
	r.out = r.out[:0]
	r.events = r.events[:0]
	if !eng.alive[i] {
		eng.inbox[i] = eng.inbox[i][:0] // a dead node consumes nothing
		return
	}
	cfg := &eng.cfg
	cp := cfg.Compute
	graph := cfg.Graph
	node := eng.nodes[i]
	enc := eng.encl[i]
	deg := graph.Degree(i)

	// --- gather inputs and the epoch start time ---
	// Algorithm 2 line 13: a node is ready to train when it has received a
	// message (possibly empty) from all its neighbors. The barrier applies
	// to RMW too — only the payload placement differs (one random neighbor
	// gets content, the rest get empty notifications).
	var inputs []message
	start := eng.clocks[i]
	if e > 0 {
		inputs = eng.inbox[i]
		// Recycle the inbox in place: the barrier appends next epoch's
		// deliveries into the same backing array after this parallel
		// section ends, and `inputs` is only read before then.
		eng.inbox[i] = inputs[:0]
		for _, m := range inputs {
			if m.arrival > start {
				start = m.arrival
			}
		}
	}

	// --- merge (Alg. 2 lines 15-16) ---
	payloads := eng.payloadBuf[i][:0]
	inBytes := 0
	for _, m := range inputs {
		payloads = append(payloads, m.payload)
		inBytes += m.bytes
	}
	eng.payloadBuf[i] = payloads
	st := node.Merge(payloads, deg)
	var mergeFlops float64
	// Cost model for faulted-away traffic: when a message this node
	// expected was dropped (drop fault or partition cut) or deferred to
	// the next barrier (reorder), the live runtime's gather waits out its
	// round timeout before proceeding; charge that wait once per such
	// round as part of the merge stage.
	var timeoutT float64
	if sc := cfg.Scenario; sc != nil && sc.TimeoutMs > 0 && e > 0 {
		for _, j := range graph.Neighbors(i) {
			if sc.Absent(j, e-1) || !eng.alive[j] {
				continue // oracle churn/crash: nothing was expected
			}
			if sc.DropAt(j, i, e-1) || sc.Partitioned(j, i, e-1) || sc.ReorderAt(j, i, e-1) {
				timeoutT = float64(sc.TimeoutMs) / 1e3
				break
			}
		}
	}
	if cfg.Mode == core.ModelSharing {
		for _, p := range payloads {
			if p.Model != nil {
				mergeFlops += float64(p.Model.ParamCount()) * cp.MergeFlopsPerParam
			}
		}
	} else {
		mergeFlops = float64(st.PointsAppended+st.PointsDuplicate) * cp.AppendFlopsPerPoint
	}
	mergeT := mergeFlops*eng.secPerFlop*enc.MemFactor() + timeoutT
	// Receiving under SGX: one ecall plus traffic decryption per message.
	for _, m := range inputs {
		mergeT += enc.ECall(m.bytes).Seconds() + enc.CryptoTime(m.bytes).Seconds()
	}

	// --- train (Alg. 2 line 17) ---
	trainT := float64(node.Train()) * cp.TrainStepFlops * eng.secPerFlop * enc.ComputeFactor()

	// --- share (Alg. 2 lines 18-20) ---
	// The payload goes to the scheme's targets (one random neighbor under
	// RMW, everyone under D-PSGD); all remaining neighbors receive an
	// empty notification that keeps the barrier advancing.
	neighbors := graph.Neighbors(i)
	payloadTo := gossip.TargetsAppend(eng.targetBuf[i][:0], cfg.Algo, graph, i, node.RNG())
	eng.targetBuf[i] = payloadTo
	// Payload targets are 1 (RMW) or deg (D-PSGD) entries: a linear scan
	// beats the per-epoch map the previous implementation allocated here.
	isPayload := func(t int) bool {
		for _, p := range payloadTo {
			if p == t {
				return true
			}
		}
		return false
	}
	var shareT float64
	var outBytes int
	if len(neighbors) > 0 {
		// retained=true: the payload is read by receivers at the next one
		// or two epoch barriers, so both modes draw from the node's pooled
		// depth-3 share rotation instead of allocating per epoch.
		payload := node.Share(deg, true)
		empty := core.Payload{From: i, Degree: deg}
		wire := core.PayloadWireSize(payload)
		emptyWire := core.PayloadWireSize(empty)
		for _, t := range neighbors {
			w := emptyWire
			if isPayload(t) {
				w = wire
			}
			shareT += float64(w) * cp.SerializeSecPerByte * enc.MemFactor()
			shareT += enc.CryptoTime(w).Seconds()
			shareT += enc.OCall(w).Seconds()
			shareT += enc.NativeAllocTime(w).Seconds()
			outBytes += w
		}
		sendDone := start + mergeT + trainT + shareT
		sc := cfg.Scenario
		for _, t := range neighbors {
			if !eng.alive[t] {
				continue // oracle: no traffic to crashed peers
			}
			pl, w := empty, emptyWire
			if isPayload(t) {
				pl, w = payload, wire
			}
			msg := message{
				payload: pl,
				arrival: sendDone + cfg.Net.LatencySec + float64(w)/cfg.Net.BandwidthBps,
				bytes:   w,
			}
			if sc == nil {
				r.out = append(r.out, delivery{to: t, msg: msg})
				continue
			}
			// Wire faults, in the same order the live wrapper applies
			// them: partition cut, drop, delay, reorder, duplicate. Events
			// go into the node's result and are folded in node-index
			// order at the barrier, keeping the log deterministic for any
			// Workers count.
			if sc.Partitioned(i, t, e) {
				r.events = append(r.events, faultnet.Event{Epoch: e, From: i, To: t, Kind: faultnet.KindPartition})
				continue
			}
			if sc.DropAt(i, t, e) {
				r.events = append(r.events, faultnet.Event{Epoch: e, From: i, To: t, Kind: faultnet.KindDrop})
				continue
			}
			if d, ok := sc.DelayAt(i, t, e); ok {
				r.events = append(r.events, faultnet.Event{Epoch: e, From: i, To: t, Kind: faultnet.KindDelay})
				msg.arrival += d.Seconds()
			}
			deferred := sc.ReorderAt(i, t, e)
			if deferred {
				r.events = append(r.events, faultnet.Event{Epoch: e, From: i, To: t, Kind: faultnet.KindReorder})
			}
			r.out = append(r.out, delivery{to: t, msg: msg, deferred: deferred})
			if sc.DuplicateAt(i, t, e) {
				r.events = append(r.events, faultnet.Event{Epoch: e, From: i, To: t, Kind: faultnet.KindDuplicate})
				r.out = append(r.out, delivery{to: t, msg: msg, deferred: deferred})
			}
		}
	}

	// --- test (Alg. 2 line 21) ---
	var testT float64
	if (e+1)%cfg.TestEvery == 0 || e == cfg.Epochs-1 {
		testT = float64(len(node.Test)) * cp.TestFlopsPerExample * eng.secPerFlop * enc.ComputeFactor()
	}

	elapsed := mergeT + trainT + shareT + testT
	eng.clocks[i] = start + elapsed
	eng.cumBytes[i] += float64(inBytes + outBytes)

	// Heap: persistent state plus this epoch's transient buffers
	// (received copies during merge + outbound serialization).
	heap := nodeHeap(node, eng.heapF, inBytes+outBytes)
	enc.SetHeap(heap)
	if heap > eng.peakHeap[i] {
		eng.peakHeap[i] = heap
	}

	r.stage = StageTimes{mergeT, trainT, shareT, testT}
	r.bytes = float64(inBytes + outBytes)
}
