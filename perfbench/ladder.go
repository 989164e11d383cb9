package main

// The per-layer ladder (--trace 1). A layer's self time is the difference
// between two nested public entry points, timed on twin state: the same
// bundle, seed model and edit or event sequence, on a second stack, a
// second serve.Server or a standalone domains.New instance. The write
// path's levels run one at a time, each on state of its own, in turns
// over two rounds; the event path's entry points run interleaved, one
// call each per round. Every time figure is a 10%-trimmed mean. The
// program is measured unchanged: every timer sits on the benchmark's side
// of a call.
//
// Write path (the hops sum to an HTTP write; ladder.write_e2e_us is the
// workload's own median REST write on model-edit, the twin's elsewhere):
//
//	api.write_self   HTTP write − (serve.Model + edit + serve.SubmitModel + serve.Model)
//	serve.model      serve.Model, counted twice (read, read-back)
//	api.publish      serve.SubmitModel with the watch hub − without it
//	serve.submit     serve.SubmitModel without the hub − Platform.SubmitModel
//	synthesis.submit Platform.SubmitModel (UI → synthesis → controller → broker)
//
// Event path (the hops sum to a wire-posted event with one in flight,
// from post until the tenant's delivered count covers it,
// ladder.event_e2e_us):
//
//	remote.post      wire post until delivered − serve.PostEvent until delivered
//	serve.post       serve.PostEvent − Platform.PostEvent
//	runtime.post     Platform.PostEvent (admission into the pump)
//	pump handoff     PostEvent returned until delivered
//	                 ≈ runtime.queue_wait + runtime.deliver
//
// The remaining figures break those hops down further (controller,
// broker, metamodel, obs), or cover the cold path and the Go runtime.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/remote"
	mdruntime "github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/serve"
)

// ladderWarmup is how many untimed operations each entry point gets before
// its samples count.
const ladderWarmup = 20

// deliverBurst is how many events one timed pumped delivery posts.
const deliverBurst = 32

// sampler times entry points and keeps their errors. Each entry point is
// a function that performs one call and returns the duration of the part
// that counts.
type sampler struct {
	n    int // samples taken across every entry point
	errs []error
}

// interleave runs one or more entry points round-robin, one call of each
// per round, so every one of them sees the same heap, scheduler and
// machine state: a stall or a GC cycle then lands on all of them alike
// instead of on whichever happened to be running. Each gets ladderWarmup
// untimed calls first; rounds run until the budget passes (at least 15).
// It returns each entry point's samples in microseconds.
func (s *sampler) interleave(budget time.Duration, fns ...func() (time.Duration, error)) [][]float64 {
	return s.interleaveAfter(ladderWarmup, budget, fns...)
}

// interleaveAfter is interleave with warm untimed calls of each entry
// point.
func (s *sampler) interleaveAfter(warm int, budget time.Duration, fns ...func() (time.Duration, error)) [][]float64 {
	out := make([][]float64, len(fns))
	for i := 0; i < warm; i++ {
		for _, fn := range fns {
			if _, err := fn(); err != nil {
				s.errs = append(s.errs, err)
				return out
			}
		}
	}
	end := time.Now().Add(budget)
	for rounds := 0; rounds < 15 || time.Now().Before(end); rounds++ {
		for k, fn := range fns {
			d, err := fn()
			if err != nil {
				s.errs = append(s.errs, err)
				return out
			}
			out[k] = append(out[k], us(d))
			s.n++
		}
	}
	return out
}

// tmean is the mean of xs without its lowest and highest 5%.
func tmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	cut := len(d) / 20
	d = d[cut : len(d)-cut]
	sum := 0.0
	for _, x := range d {
		sum += x
	}
	return sum / float64(len(d))
}

// timed measures one call.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// twinDoc is the seed model the workload's twins use: the cml model its
// first tenant holds.
func twinDoc(workload string, seed int64) modelDoc {
	switch workload {
	case "model-edit":
		return editSeed(seed)
	case "event-stream":
		return eventSeed(seed, 0)
	default:
		_, doc := churnSeed(seed, 0)
		return doc
	}
}

func toModel(doc modelDoc) (*metamodel.Model, error) {
	return metamodel.UnmarshalModel(mustJSON(doc))
}

// applyEdit applies one client write to a program-side model.
func applyEdit(m *metamodel.Model, w write) {
	switch w.Method {
	case "DELETE":
		_ = m.Delete(w.ID)
	case "PUT":
		o := m.NewObject(w.ID, w.Want.Class)
		for k, v := range w.Want.Attrs {
			o.SetAttr(k, v)
		}
	default:
		o := m.Get(w.ID)
		for k, v := range w.Want.Attrs {
			o.SetAttr(k, v)
		}
	}
}

// standalone provisions a bundle instance outside any server, seeded with
// doc; o nil leaves it untraced.
func standalone(doc modelDoc, o *obs.Obs, start bool) (*domains.Instance, error) {
	return standaloneCfg(doc, domains.Config{Obs: o}, start)
}

// standaloneCfg is standalone with a full instance configuration.
func standaloneCfg(doc modelDoc, cfg domains.Config, start bool) (*domains.Instance, error) {
	inst, err := domains.New("cml", cfg)
	if err != nil {
		return nil, err
	}
	m, err := toModel(doc)
	if err != nil {
		return nil, err
	}
	if _, err := inst.Platform.SubmitModel(m); err != nil {
		inst.Close()
		return nil, fmt.Errorf("seed standalone: %w", err)
	}
	if start {
		inst.Platform.Start()
	}
	return inst, nil
}

func runLadder(workload string, seed int64, seconds int) (*result, error) {
	total := time.Duration(seconds) * time.Second
	res := &result{}
	smp := &sampler{}

	// The workload itself, briefly: its allocation and GC rates and its
	// traffic's cold share.
	ph, err := e2ePhase(workload, seed, total/4, res)
	if err != nil {
		return nil, err
	}
	doc := twinDoc(workload, seed)
	wl, err := writeLadder(smp, doc, seed, total*35/100)
	if err != nil {
		return nil, err
	}
	el, err := eventLadder(smp, doc, seed, total/4)
	if err != nil {
		return nil, err
	}
	cl, err := coldLadder(smp, doc, total*15/100)
	if err != nil {
		return nil, err
	}
	for _, e := range smp.errs {
		res.failed++
		res.checkErr(e)
	}
	res.attempted += smp.n

	// Write path. Every figure is a trimmed mean (tmean): medians do not
	// add up across a mix of edits, means do, and the trim drops the
	// stalls a GC cycle or the machine puts on a few samples. The hops are
	// reconciled with the median of the workload's own REST writes in
	// this run's workload phase (op_p50_us) where it makes the twin's
	// writes (model-edit), and with the twin's HTTP write elsewhere.
	twinWrite := tmean(wl.http)
	writeE2E := twinWrite
	if len(ph.writes) > 0 {
		writeE2E = median(ph.writes)
	}
	apiWrite := twinWrite - tmean(wl.direct)
	serveModel := tmean(wl.model)
	publish := tmean(wl.submitHub) - tmean(wl.submitBare)
	serveSubmit := tmean(wl.submitBare) - tmean(wl.platform)
	synth := tmean(wl.platform)
	writeSum := apiWrite + 2*serveModel + publish + serveSubmit + synth
	res.add("api.write_self_us", "us", apiWrite)
	res.add("api.read_self_us", "us", tmean(wl.httpRead)-serveModel)
	res.add("api.publish_us", "us", publish)
	res.add("serve.model_us", "us", serveModel)
	res.add("serve.submit_us", "us", serveSubmit)
	res.add("synthesis.submit_us", "us", synth)
	res.add("controller.execute_us", "us", tmean(wl.execute))
	res.add("broker.call_us", "us", tmean(wl.call))
	res.add("metamodel.clone_us", "us", tmean(wl.clone))
	res.add("metamodel.diff_us", "us", tmean(wl.diff))
	res.add("metamodel.validate_us", "us", tmean(wl.validate))
	res.add("controller.commands_per_write", "count", wl.commandsPerWrite)
	res.add("api.deltas_per_write", "count", wl.deltasPerWrite)

	// Event path. As on the write path, the top hop is the difference
	// between two end-to-end latencies: an event posted over the wire and
	// one posted through serve.PostEvent, each until delivered. That puts
	// on the wire both its request leg and what its reply leg costs the
	// delivery it overlaps (the two compete for the CPUs; remote.ack_us is
	// the post's whole round trip). Queue wait is a lone event's handoff
	// less the back-to-back delivery time, both on the untraced pump: on
	// the traced one a back-to-back delivery costs more than a lone one
	// (the note below prints both), which would make the difference read
	// negative.
	remotePost := tmean(el.e2e) - tmean(el.serveE2E)
	servePost := tmean(el.servePost) - tmean(el.platformPost)
	rtPost := tmean(el.platformPost)
	handoff := tmean(el.handoff)
	deliver := tmean(el.deliver)
	eventE2E := tmean(el.e2e)
	eventSum := remotePost + servePost + rtPost + handoff
	res.add("remote.post_us", "us", remotePost)
	res.add("remote.ack_us", "us", tmean(el.ack))
	res.add("serve.post_us", "us", servePost)
	res.add("runtime.post_us", "us", rtPost)
	res.add("runtime.queue_wait_us", "us", tmean(el.loneBare)-tmean(el.deliverBare))
	res.add("runtime.deliver_us", "us", deliver)
	res.add("runtime.deliver_untraced_us", "us", tmean(el.deliverBare))
	res.add("obs.trace_overhead_us", "us", deliver-tmean(el.deliverBare))
	res.add("controller.event_us", "us", tmean(el.ctlEvent))
	res.add("synthesis.event_us", "us", tmean(el.synthEvent))
	res.add("broker.event_self_us", "us", tmean(el.deliverSync)-tmean(el.ctlEvent))
	res.add("broker.calls_per_event", "count", el.callsPerEvent)

	// Cold path.
	res.add("serve.evict_us", "us", tmean(cl.evict))
	res.add("serve.rehydrate_us", "us", tmean(cl.cold)-tmean(cl.warm))
	res.add("runtime.checkpoint_us", "us", tmean(cl.checkpoint))
	res.add("runtime.snapshot_kb", "KB", cl.snapshotKB)
	res.add("domains.restore_us", "us", tmean(cl.restore))
	res.add("metamodel.marshal_us", "us", tmean(cl.marshal))
	res.add("metamodel.unmarshal_us", "us", tmean(cl.unmarshal))
	res.add("serve.cold_share", "ratio", ph.coldShare)

	// Go runtime, over the workload phase.
	ops := float64(ph.ops)
	if ops < 1 {
		ops = 1
	}
	res.add("go.alloc_kb_per_op", "KB", ph.allocKB/ops)
	res.add("go.gc_per_kop", "count", 1000*float64(ph.gcs)/ops)

	// Reconciliation.
	res.add("ladder.write_e2e_us", "us", writeE2E)
	res.add("ladder.write_residual_pct", "%", 100*(writeE2E-writeSum)/writeE2E)
	res.add("ladder.event_e2e_us", "us", eventE2E)
	res.add("ladder.event_residual_pct", "%", 100*(eventE2E-eventSum)/eventE2E)
	res.note("write hops: api %.1f + 2x serve.model %.1f + publish %.1f + serve.submit %.1f + synthesis %.1f = %.1f us vs e2e %.1f us",
		apiWrite, serveModel, publish, serveSubmit, synth, writeSum, writeE2E)
	if len(ph.writes) > 0 {
		res.note("twin HTTP write %.1f us; the workload's writes: median %.1f us, trimmed mean %.1f us",
			twinWrite, writeE2E, tmean(ph.writes))
	}
	res.note("event hops: remote %.1f + serve %.1f + runtime.post %.1f + pump handoff %.1f = %.1f us vs e2e %.1f us",
		remotePost, servePost, rtPost, handoff, eventSum, eventE2E)
	if len(ph.events) > 0 {
		res.note("the workload's events (%d in flight per connection): trimmed mean %.1f us, median %.1f us",
			eventWindow, tmean(ph.events), median(ph.events))
	}
	res.note("one-shard pump, traced: lone handoff %.1f us, back-to-back delivery %.1f us; untraced: %.1f us, %.1f us",
		tmean(el.loneTraced), deliver, tmean(el.loneBare), tmean(el.deliverBare))
	res.note("synchronous delivery: streamFailed %.1f us, telemetry %.1f us", el.deliverFailed, el.deliverUnmatched)
	return res, nil
}

// e2ePhase sets the workload up once and runs its timed phase for d. Its
// end-to-end metrics are dropped (the timed run reports them); its
// operation counts and check results are kept.
func e2ePhase(workload string, seed int64, d time.Duration, res *result) (*phase, error) {
	phaseRes := &result{}
	var ph *phase
	switch workload {
	case "model-edit":
		s, err := setupEdit(seed)
		if err != nil {
			return nil, err
		}
		defer s.close()
		ph = s.measure(phaseRes, d)
	case "event-stream":
		es, err := setupEvents(seed)
		if err != nil {
			return nil, err
		}
		defer es.close()
		ph = es.measure(phaseRes, d)
	default:
		cs, err := setupChurn(seed)
		if err != nil {
			return nil, err
		}
		defer cs.close()
		ph = cs.measure(phaseRes, d)
	}
	res.attempted += phaseRes.attempted
	res.failed += phaseRes.failed
	res.errs = append(res.errs, phaseRes.errs...)
	res.notes = append(res.notes, phaseRes.notes...)
	return ph, nil
}

// ---------------------------------------------------------------------------
// write path
// ---------------------------------------------------------------------------

type writeSamples struct {
	http, httpRead, direct, model, submitHub, submitBare, platform []float64
	execute, call, clone, diff, validate                           []float64
	commandsPerWrite, deltasPerWrite                               float64
	deltas, writes                                                 float64
}

// writeRounds is how many times the write ladder runs each of its levels.
const writeRounds = 2

// writeWarmup is how many untimed writes each write level makes first:
// more than a serve host's validation cache holds (256 models), so that
// every level is timed with the cache full and the heap at the size the
// workload runs at, not on a small fresh heap that collects several times
// as often.
const writeWarmup = 300

// writeLadder times the write path's levels one at a time, each on state
// of its own that is set up before and torn down after it: levels that
// share the process for the whole ladder each pay for the others' live
// models, validation-cache entries and GC cycles (run that way, the twin
// HTTP write read twice the workload's). The levels take turns over
// writeRounds rounds, so a slow spell of the machine lands on all of them
// rather than on one. Every level replays the same edit sequence from the
// same seed model.
func writeLadder(smp *sampler, doc modelDoc, seed int64, budget time.Duration) (*writeSamples, error) {
	ws := &writeSamples{}
	slot := budget * 15 / 100 / writeRounds
	var scripts []*script.Script
	var cmds, submits float64
	levels := []func() error{
		// Level 0, HTTP: a twin stack with a watcher, writes and reads
		// exactly as the model-edit client makes them.
		func() error {
			st, wire, err := twinStack(doc)
			if err != nil {
				return err
			}
			defer st.close()
			defer wire.Close()
			w, err := st.watch("t")
			if err != nil {
				return err
			}
			es := &editState{st: st, tenant: "t", model: newClientModel(doc)}
			es.gen = newEditGen(seed+1, es.model)
			var reads []float64
			ws.http = append(ws.http, smp.interleaveAfter(writeWarmup, slot, func() (time.Duration, error) {
				dw, dr, err := es.op()
				reads = append(reads, us(dr))
				return dw, err
			})[0]...)
			ws.httpRead = append(ws.httpRead, untimed(reads, writeWarmup)...)
			w.waitFor(len(es.written), 2*time.Second)
			ws.deltas += float64(len(w.stop()))
			ws.writes += float64(len(es.written))
			return nil
		},
		// Level 1: the same edits through serve's entry points, on a stack
		// whose API server attaches the watch hub.
		func() error {
			st, wire, err := twinStack(doc)
			if err != nil {
				return err
			}
			defer st.close()
			defer wire.Close()
			gen := newEditGen(seed+1, newClientModel(doc))
			var model, submit []float64
			ws.direct = append(ws.direct, smp.interleaveAfter(writeWarmup, slot, func() (time.Duration, error) {
				wr := gen.next()
				var dm, ds time.Duration
				d, err := timed(func() error {
					t0 := time.Now()
					m, _, err := st.serve.Model("t")
					dm = time.Since(t0)
					if err != nil {
						return err
					}
					applyEdit(m, wr)
					t1 := time.Now()
					_, err = st.serve.SubmitModel("t", m)
					ds = time.Since(t1)
					if err != nil {
						return err
					}
					_, _, err = st.serve.Model("t")
					return err
				})
				model = append(model, us(dm))
				submit = append(submit, us(ds))
				return d, err
			})[0]...)
			ws.model = append(ws.model, untimed(model, writeWarmup)...)
			ws.submitHub = append(ws.submitHub, untimed(submit, writeWarmup)...)
			return nil
		},
		// Level 2: serve.SubmitModel with no watch hub, on a bare host.
		func() error {
			seedModel, err := toModel(doc)
			if err != nil {
				return err
			}
			bare := serve.NewServer(serve.Config{})
			defer bare.Close()
			if err := bare.Create("t", "cml"); err != nil {
				return err
			}
			if _, err := bare.SubmitModel("t", seedModel); err != nil {
				return err
			}
			gen := newEditGen(seed+1, newClientModel(doc))
			ws.submitBare = append(ws.submitBare, smp.interleaveAfter(writeWarmup, slot, func() (time.Duration, error) {
				wr := gen.next()
				m, _, err := bare.Model("t")
				if err != nil {
					return 0, err
				}
				applyEdit(m, wr)
				return timed(func() error { _, err := bare.SubmitModel("t", m); return err })
			})[0]...)
			return nil
		},
		// Level 3: Platform.SubmitModel on a standalone instance.
		func() error {
			cur, err := toModel(doc)
			if err != nil {
				return err
			}
			o := obs.New()
			inst, err := standalone(doc, o, true)
			if err != nil {
				return err
			}
			defer inst.Close()
			p := inst.Platform
			gen := newEditGen(seed+1, newClientModel(doc))
			n := 0
			var cmds0 int64
			ws.platform = append(ws.platform, smp.interleaveAfter(writeWarmup, slot, func() (time.Duration, error) {
				if n == writeWarmup {
					cmds0 = o.MetricsOf().CounterValue(obs.MControllerCommands)
				}
				n++
				// The platform keeps the submitted model; it is only read
				// from here on, by the next edit's clone.
				next := cur.Clone()
				applyEdit(next, gen.next())
				var sc *script.Script
				d, err := timed(func() error { var err error; sc, err = p.SubmitModel(next); return err })
				cur = next
				if sc != nil && sc.Len() > 0 && len(scripts) < 64 {
					scripts = append(scripts, sc)
				}
				return d, err
			})[0]...)
			cmds += float64(o.MetricsOf().CounterValue(obs.MControllerCommands) - cmds0)
			submits += float64(n - writeWarmup)
			return nil
		},
	}
	for r := 0; r < writeRounds; r++ {
		for _, level := range levels {
			if err := isolated(level); err != nil {
				return nil, err
			}
		}
	}
	ws.deltasPerWrite = ws.deltas / ws.writes
	ws.commandsPerWrite = cmds / submits
	if len(scripts) == 0 {
		return nil, fmt.Errorf("write ladder: no edit dispatched a command (errors: %v)", smp.errs)
	}

	// Below level 3, on a standalone instance of its own: the scripts
	// those writes produced, replayed on the controller, and their
	// commands on the broker (reconfigurations are idempotent); then the
	// metamodel operations on the model the edits produce.
	return ws, isolated(func() error {
		cur, err := toModel(doc)
		if err != nil {
			return err
		}
		inst, err := standalone(doc, obs.New(), true)
		if err != nil {
			return err
		}
		defer inst.Close()
		p := inst.Platform
		gen := newEditGen(seed+1, newClientModel(doc))
		sub := budget / 10
		i := 0
		ws.execute = smp.interleave(sub, func() (time.Duration, error) {
			sc := scripts[i%len(scripts)]
			i++
			return timed(func() error { return p.Controller.Execute(sc) })
		})[0]
		i = 0
		ws.call = smp.interleave(sub, func() (time.Duration, error) {
			sc := scripts[i%len(scripts)]
			i++
			return timed(func() error { return p.Broker.Call(sc.Commands[0]) })
		})[0]
		mm := p.UI.DSML()
		ws.clone = smp.interleave(sub/2, func() (time.Duration, error) {
			return timed(func() error { _ = cur.Clone(); return nil })
		})[0]
		ws.diff = smp.interleave(sub*3/2, func() (time.Duration, error) {
			next := cur.Clone()
			applyEdit(next, gen.next())
			d, _ := timed(func() error { _ = metamodel.DiffWithContainment(cur, next, mm); return nil })
			dv, err := timed(func() error { return next.Validate(mm) })
			ws.validate = append(ws.validate, us(dv))
			cur = next
			return d, err
		})[0]
		return nil
	})
}

// twinStack starts a stack with one cml tenant, "t", seeded with doc.
func twinStack(doc modelDoc) (*stack, *remote.Client, error) {
	st, err := startStack(0)
	if err != nil {
		return nil, nil, err
	}
	wire, err := remote.Dial(st.wire.Addr())
	if err != nil {
		st.close()
		return nil, nil, err
	}
	if err := st.createTenant(wire, "t", "cml", doc); err != nil {
		wire.Close()
		st.close()
		return nil, nil, err
	}
	return st, wire, nil
}

// untimed drops the samples an entry point recorded on the side during
// its warm untimed calls.
func untimed(xs []float64, warm int) []float64 {
	if len(xs) < warm {
		return nil
	}
	return xs[warm:]
}

// isolated runs one ladder level after a forced GC, so it starts from a
// heap that holds none of the previous level's garbage.
func isolated(level func() error) error {
	runtime.GC()
	return level()
}

// ---------------------------------------------------------------------------
// event path
// ---------------------------------------------------------------------------

type eventSamples struct {
	e2e, ack, serveE2E, servePost  []float64
	platformPost, handoff, deliver []float64
	deliverBare, deliverSync       []float64
	loneTraced, loneBare           []float64
	ctlEvent, synthEvent           []float64
	callsPerEvent                  float64
	// deliverFailed and deliverUnmatched split the synchronous delivery
	// time by kind of event (reference figures).
	deliverFailed, deliverUnmatched float64
}

// waitDelivered polls a delivered counter until it reaches n.
func waitDelivered(read func() int64, n int64) error {
	end := time.Now().Add(5 * time.Second)
	for read() < n {
		if time.Now().After(end) {
			return fmt.Errorf("event not delivered within 5s")
		}
		runtime.Gosched()
	}
	return nil
}

func eventLadder(smp *sampler, doc modelDoc, seed int64, budget time.Duration) (*eventSamples, error) {
	es := &eventSamples{}
	gen := func() *eventGen {
		return &eventGen{rng: rand.New(rand.NewSource(seed * 31)), tenants: []string{"e"},
			streams: streamsOf(newClientModel(doc))}
	}

	// Level 0: over the wire to a twin stack, one event in flight, timed
	// until the tenant's delivered count covers it. Level 1: serve.PostEvent
	// on a second tenant of the same host.
	st, err := startStack(0)
	if err != nil {
		return nil, err
	}
	defer st.close()
	wire, err := remote.Dial(st.wire.Addr())
	if err != nil {
		return nil, err
	}
	defer wire.Close()
	for _, t := range []string{"e", "f"} {
		if err := st.createTenant(wire, t, "cml", doc); err != nil {
			return nil, err
		}
	}
	// Both tenants' delivered counters, read without taking the host's
	// lock: a waiter polling serve.Accounting contends with the host it
	// is timing.
	counters := map[string]*obs.Counter{}
	st.serve.EachTenantObs(func(t string, o *obs.Obs, _ bool) {
		counters[t] = o.MetricsOf().Counter(obs.MEventsDelivered)
	})
	deliveredE, deliveredF := counters["e"].Value, counters["f"].Value
	sess := wire.Session("e")
	var posted0, posted1 int64
	g0, g1 := gen(), gen()
	overWire := func() (time.Duration, error) {
		ev := g0.next().ev
		t0 := time.Now()
		if err := sess.PostEvent(ev); err != nil {
			return 0, err
		}
		es.ack = append(es.ack, us(time.Since(t0)))
		posted0++
		err := waitDelivered(deliveredE, posted0)
		return time.Since(t0), err
	}
	servePost := func() (time.Duration, error) {
		ev := g1.next().ev
		t0 := time.Now()
		if err := st.serve.PostEvent("f", ev); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		posted1++
		err := waitDelivered(deliveredF, posted1)
		es.serveE2E = append(es.serveE2E, us(time.Since(t0)))
		return d, err
	}

	// Level 2: Platform.PostEvent on a started standalone instance, and
	// the time from its return until the pump has delivered the event.
	po := obs.New()
	pinst, err := standalone(doc, po, true)
	if err != nil {
		return nil, err
	}
	defer pinst.Close()
	pdelivered := po.MetricsOf().Counter(obs.MEventsDelivered)
	g2 := gen()
	platformPost := func() (time.Duration, error) {
		ev := g2.next().ev
		n := pdelivered.Value() + 1
		t0 := time.Now()
		if !pinst.Platform.PostEvent(ev) {
			return 0, fmt.Errorf("platform refused an event")
		}
		t1 := time.Now()
		err := waitDelivered(pdelivered.Value, n)
		es.handoff = append(es.handoff, us(time.Since(t1)))
		return t1.Sub(t0), err
	}

	// Level 3: delivery on the pump's worker, traced (as serve traces
	// every tenant) and untraced (a metrics-only obs bundle, which keeps
	// the delivered counter but records no span). Each call posts a lone
	// event and times it from PostEvent's return until delivered (the
	// handoff), then posts a burst of deliverBurst events onto the same
	// one-shard pump, which the worker delivers back to back: the burst's
	// time minus the lone event's, over deliverBurst−1, is the per-event
	// delivery time without the worker's wake-up and the waiter's notice,
	// which both pay once.
	type pumped struct {
		lone  []float64 // handoffs of the lone events, us
		burst func() (time.Duration, error)
		close func()
	}
	pumpedOf := func(o *obs.Obs) (*pumped, error) {
		inst, err := standaloneCfg(doc, domains.Config{Obs: o, Runtime: mdruntime.Config{PumpShards: 1}}, true)
		if err != nil {
			return nil, err
		}
		n := o.MetricsOf().Counter(obs.MEventsDelivered)
		g := gen()
		pm := &pumped{close: inst.Close}
		pm.burst = func() (time.Duration, error) {
			want := n.Value() + 1
			t0 := time.Now()
			if !inst.Platform.PostEvent(g.next().ev) {
				return 0, fmt.Errorf("platform refused an event")
			}
			t1 := time.Now()
			if err := waitDelivered(n.Value, want); err != nil {
				return 0, err
			}
			pm.lone = append(pm.lone, us(time.Since(t1)))
			one := time.Since(t0)
			want = n.Value() + deliverBurst
			t0 = time.Now()
			for i := 0; i < deliverBurst; i++ {
				if !inst.Platform.PostEvent(g.next().ev) {
					return 0, fmt.Errorf("platform refused an event")
				}
			}
			err := waitDelivered(n.Value, want)
			return (time.Since(t0) - one) / (deliverBurst - 1), err
		}
		return pm, nil
	}
	traced, err := pumpedOf(obs.New())
	if err != nil {
		return nil, err
	}
	defer traced.close()
	bare, err := pumpedOf(&obs.Obs{Metrics: obs.NewMetrics()})
	if err != nil {
		return nil, err
	}
	defer bare.close()

	// Level 3, synchronous: Platform.DeliverEvent on an unstarted traced
	// instance, the same calling convention as the controller's and the
	// synthesis layer's OnEvent below, which it is compared with.
	qo := obs.New()
	q, err := standalone(doc, qo, false)
	if err != nil {
		return nil, err
	}
	defer q.Close()
	calls := qo.MetricsOf().Counter(obs.MBrokerCalls)
	g3 := gen()
	var c0 int64
	events := 0
	var syncKind [2][]float64 // [0] telemetry, [1] streamFailed
	deliverSync := func() (time.Duration, error) {
		if events == ladderWarmup {
			c0 = calls.Value()
		}
		events++
		pe := g3.next()
		d, err := timed(func() error { return q.Platform.DeliverEvent(pe.ev) })
		k := 0
		if pe.failed {
			k = 1
		}
		if events > ladderWarmup {
			syncKind[k] = append(syncKind[k], us(d))
		}
		return d, err
	}

	lv := smp.interleave(budget*7/10, overWire, servePost, platformPost, traced.burst, bare.burst, deliverSync)
	es.e2e, es.servePost, es.platformPost, es.deliver, es.deliverBare, es.deliverSync = lv[0], lv[1], lv[2], lv[3], lv[4], lv[5]
	es.deliverFailed, es.deliverUnmatched = tmean(syncKind[1]), tmean(syncKind[0])
	es.loneTraced, es.loneBare = untimed(traced.lone, ladderWarmup), untimed(bare.lone, ladderWarmup)
	es.ack, es.serveE2E = untimed(es.ack, ladderWarmup), untimed(es.serveE2E, ladderWarmup)
	es.handoff = untimed(es.handoff, ladderWarmup)
	if n := float64(events - ladderWarmup); n > 0 {
		es.callsPerEvent = float64(calls.Value()-c0) / n
	}

	// Inside delivery: the controller's and the synthesis layer's event
	// entry points. The synthesis layer receives only what the controller
	// forwards up, the streamFailed events.
	g5, g6 := gen(), gen()
	lv = smp.interleave(budget*3/10, func() (time.Duration, error) {
		ev := g5.next().ev
		return timed(func() error { return q.Platform.Controller.OnEvent(ev) })
	}, func() (time.Duration, error) {
		pe := g6.next()
		for !pe.failed {
			pe = g6.next()
		}
		return timed(func() error { return q.Platform.Synthesis.OnEvent(pe.ev) })
	})
	es.ctlEvent, es.synthEvent = lv[0], lv[1]
	return es, nil
}

// ---------------------------------------------------------------------------
// cold path
// ---------------------------------------------------------------------------

type coldSamples struct {
	evict, cold, warm, checkpoint, restore, marshal, unmarshal []float64
	snapshotKB                                                 float64
}

func coldLadder(smp *sampler, doc modelDoc, budget time.Duration) (*coldSamples, error) {
	slot := budget / 4
	cs := &coldSamples{}
	s := serve.NewServer(serve.Config{})
	defer s.Close()
	if err := s.Create("k", "cml"); err != nil {
		return nil, err
	}
	m, err := toModel(doc)
	if err != nil {
		return nil, err
	}
	if _, err := s.SubmitModel("k", m); err != nil {
		return nil, err
	}
	cs.evict = smp.interleave(slot, func() (time.Duration, error) {
		d, err := timed(func() error { return s.Evict("k") })
		if err != nil {
			return 0, err
		}
		dc, err := timed(func() error { _, _, err := s.Model("k"); return err })
		cs.cold = append(cs.cold, us(dc))
		dw, err2 := timed(func() error { _, _, err := s.Model("k"); return err })
		cs.warm = append(cs.warm, us(dw))
		if err == nil {
			err = err2
		}
		return d, err
	})[0]

	inst, err := standalone(doc, obs.New(), true)
	if err != nil {
		return nil, err
	}
	defer inst.Close()
	var snap []byte
	cs.checkpoint = smp.interleave(slot, func() (time.Duration, error) {
		return timed(func() error { var err error; snap, err = inst.Platform.Checkpoint(); return err })
	})[0]
	cs.snapshotKB = float64(len(snap)) / 1024
	cs.restore = smp.interleave(slot, func() (time.Duration, error) {
		var r *domains.Instance
		d, err := timed(func() error {
			var err error
			r, err = domains.Restore("cml", snap, domains.Config{Obs: obs.New()})
			return err
		})
		if r != nil {
			r.Close()
		}
		return d, err
	})[0]
	var data []byte
	cs.marshal = smp.interleave(slot/2, func() (time.Duration, error) {
		return timed(func() error { var err error; data, err = metamodel.MarshalModel(m); return err })
	})[0]
	cs.unmarshal = smp.interleave(slot/2, func() (time.Duration, error) {
		return timed(func() error { _, err := metamodel.UnmarshalModel(data); return err })
	})[0]
	return cs, nil
}
