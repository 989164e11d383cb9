package main

import (
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/serve"
)

// event-stream: two wire connections post resource events into 16 small
// CML tenants as fast as their windows allow. 20% are streamFailed
// events, which go up four layers and come back down as a recoverStream
// command; the rest are unmatched telemetry events, which only go up.
// Each connection keeps at most eventWindow events in flight (posted, not
// yet delivered), far below the pump's 256-deep shard queue, so no event
// is ever refused. Admission, the pump, broker, controller, synthesis and
// tracing dominate; no model is written.

const (
	eventTenants = 16
	eventPosters = 2  // connections; one per CPU of the reference machine
	eventWindow  = 16 // in-flight events per connection
	eventWarmup  = 400
	// eventHeapOps is how many events are posted and drained after set-up
	// before heap_mb is read.
	eventHeapOps = 8000
	// failedShare is the percentage of streamFailed events in the mix.
	// No trace of a deployment fixes it; it is an assumption, chosen so
	// that telemetry outnumbers failures four to one while the recovery
	// path still takes about 40% of delivery time (a traced streamFailed
	// delivery costs ≈500 us, a telemetry one ≈190 us, ladder notes).
	failedShare = 20
	// pollPause is how long a poster with a full window sleeps before
	// reading the delivered counts again (about 60-90 us in practice).
	// Sleeping, not spinning, keeps the client's CPU time a measure of
	// work done, at the price of timing deliveries to within a pause.
	pollPause = 20 * time.Microsecond
)

// eventGen produces one poster's event sequence over its tenants.
// streamFailed events name one of the streams every tenant's model holds.
type eventGen struct {
	rng     *rand.Rand
	tenants []string
	streams []*object
}

type postEvent struct {
	tenant string
	ev     broker.Event
	failed bool // a streamFailed event
}

func (g *eventGen) next() postEvent {
	t := g.tenants[g.rng.Intn(len(g.tenants))]
	if g.rng.Intn(100) < failedShare {
		st := g.streams[g.rng.Intn(len(g.streams))]
		return postEvent{tenant: t, failed: true, ev: broker.Event{Name: "streamFailed", Attrs: map[string]any{
			"session": st.Attrs["session"], "stream": st.ID,
		}}}
	}
	return postEvent{tenant: t, ev: broker.Event{Name: "telemetry", Attrs: map[string]any{
		"load": float64(g.rng.Intn(1000)) / 10,
	}}}
}

// poster is one client connection and the tenants it alone posts to.
type poster struct {
	s       *serve.Server
	client  *remote.Client
	gen     *eventGen
	posts   map[string]int64 // events posted per tenant, ever
	failed  map[string]int64 // streamFailed events posted per tenant, ever
	pending map[string][]time.Time
	seen    map[string]int64 // delivered count last observed per tenant
	lat     []float64        // post -> delivered, us
	doneAt  []time.Time      // when each timed event was seen delivered
	acks    []float64        // wire round trip, us
	errs    []error
}

func (p *poster) inflight() int {
	n := 0
	for _, q := range p.pending {
		n += len(q)
	}
	return n
}

// poll reads each pending tenant's delivered count and completes the
// events it now covers, oldest first.
func (p *poster) poll(record bool) {
	now := time.Now()
	for t, q := range p.pending {
		if len(q) == 0 {
			continue
		}
		a, err := p.s.Accounting(t)
		if err != nil {
			p.errs = append(p.errs, err)
			delete(p.pending, t)
			continue
		}
		for p.seen[t] < a.Delivered && len(q) > 0 {
			p.seen[t]++
			if record {
				p.lat = append(p.lat, us(now.Sub(q[0])))
				p.doneAt = append(p.doneAt, now)
			}
			q = q[1:]
		}
		p.pending[t] = q
	}
}

// run posts until the deadline (or n events when n > 0), waiting while
// the window is full, and polls the delivered counts after every post.
func (p *poster) run(deadline time.Time, n int, record bool) {
	for i := 0; n <= 0 || i < n; i++ {
		if n <= 0 && !time.Now().Before(deadline) {
			break
		}
		for p.inflight() >= eventWindow {
			pause()
			p.poll(record)
		}
		pe := p.gen.next()
		t0 := time.Now()
		err := p.client.Session(pe.tenant).PostEvent(pe.ev)
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("post %s to %s: %w", pe.ev.Name, pe.tenant, err))
			return
		}
		if record {
			p.acks = append(p.acks, us(time.Since(t0)))
		}
		p.posts[pe.tenant]++
		if pe.failed {
			p.failed[pe.tenant]++
		}
		p.pending[pe.tenant] = append(p.pending[pe.tenant], t0)
		p.poll(record)
	}
}

// drain waits until every posted event is delivered.
func (p *poster) drain(record bool, limit time.Duration) error {
	end := time.Now().Add(limit)
	for p.inflight() > 0 {
		if time.Now().After(end) {
			return fmt.Errorf("events still undelivered after %v", limit)
		}
		pause()
		p.poll(record)
	}
	return nil
}

// pause blocks the calling thread for pollPause. time.Sleep cannot serve:
// when the process is otherwise idle, the Go scheduler rounds a sleep up
// to its netpoller's millisecond timeout, and a 50 us sleep measured
// 1.08 ms, which would put a millisecond step into every delivery time.
func pause() {
	ts := syscall.NsecToTimespec(int64(pollPause))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only polls sooner
}

type eventState struct {
	st      *stack
	tenants []string
	posters []*poster
	calls0  map[string]int64 // broker calls per tenant after seeding
}

func eventSeed(seed int64, i int) modelDoc {
	return cmlSeed(rand.New(rand.NewSource(seed*1000+int64(i))), 1, 2, 3, 2)
}

func setupEvents(seed int64) (*eventState, error) {
	st, err := startStack(0)
	if err != nil {
		return nil, err
	}
	es := &eventState{st: st, calls0: map[string]int64{}}
	for i := 0; i < eventPosters; i++ {
		c, err := remote.Dial(st.wire.Addr())
		if err != nil {
			es.close()
			return nil, err
		}
		es.posters = append(es.posters, &poster{s: st.serve, client: c,
			gen: &eventGen{rng: rand.New(rand.NewSource(seed*31 + int64(i))),
				streams: streamsOf(newClientModel(eventSeed(seed, 0)))},
			posts: map[string]int64{}, failed: map[string]int64{},
			pending: map[string][]time.Time{}, seen: map[string]int64{}})
	}
	for i := 0; i < eventTenants; i++ {
		name := tenantName("ev", i)
		if err := st.createTenant(es.posters[0].client, name, "cml", eventSeed(seed, i)); err != nil {
			es.close()
			return nil, err
		}
		es.tenants = append(es.tenants, name)
		p := es.posters[i%eventPosters]
		p.gen.tenants = append(p.gen.tenants, name)
	}
	es.calls0 = brokerCalls(st.serve)
	if err := es.phase(time.Time{}, eventWarmup/eventPosters, false); err != nil {
		es.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, p := range es.posters {
		if err := p.drain(false, 10*time.Second); err != nil {
			es.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return es, nil
}

// phase runs every poster concurrently.
func (es *eventState) phase(deadline time.Time, n int, record bool) error {
	var wg sync.WaitGroup
	for _, p := range es.posters {
		wg.Add(1)
		go func(p *poster) {
			defer wg.Done()
			p.run(deadline, n, record)
		}(p)
	}
	wg.Wait()
	for _, p := range es.posters {
		if len(p.errs) > 0 {
			return p.errs[0]
		}
	}
	return nil
}

func (es *eventState) close() {
	for _, p := range es.posters {
		p.client.Close()
	}
	es.st.close()
}

// streamsOf lists a model's Stream objects, sorted by id.
func streamsOf(m *clientModel) []*object {
	var out []*object
	for _, id := range m.ids("Stream") {
		out = append(out, m.objs[id])
	}
	return out
}

// brokerCalls reads every tenant's public broker-call counter.
func brokerCalls(s *serve.Server) map[string]int64 {
	out := map[string]int64{}
	s.EachTenantObs(func(t string, o *obs.Obs, _ bool) {
		out[t] = o.MetricsOf().CounterValue(obs.MBrokerCalls)
	})
	return out
}

// delivered sums the delivered counters of the tenants.
func delivered(s *serve.Server, tenants []string) (int64, error) {
	var n int64
	for _, t := range tenants {
		a, err := s.Accounting(t)
		if err != nil {
			return 0, err
		}
		n += a.Delivered
	}
	return n, nil
}

func runEventStream(seed int64, seconds int) (*result, error) {
	res := &result{}
	es, err := setupRepeated(res, func() (*eventState, error) { return setupEvents(seed) },
		func(es *eventState) { es.close() })
	if err != nil {
		return nil, err
	}
	defer es.close()
	res.attempted += eventHeapOps
	err = es.phase(time.Time{}, eventHeapOps/eventPosters, false)
	for _, p := range es.posters {
		if derr := p.drain(false, 10*time.Second); err == nil {
			err = derr
		}
	}
	if err != nil {
		res.failed++
		res.checkErr(err)
	}
	addHeap(res)
	es.measure(res, time.Duration(seconds)*time.Second)
	return res, nil
}

// measure runs the timed phase for d, then drains and checks every
// tenant, and adds the end-to-end metrics to res.
func (es *eventState) measure(res *result, d time.Duration) *phase {
	d0, err := delivered(es.st.serve, es.tenants)
	res.checkErr(err)
	pr := startProbe()
	start := time.Now()
	perr := es.phase(start.Add(d), 0, true)
	d1, err := delivered(es.st.serve, es.tenants)
	elapsed := time.Since(start)
	res.checkErr(err)
	ph := &phase{ops: int(d1 - d0)}
	pr.stop(ph)
	for _, p := range es.posters {
		if derr := p.drain(true, 10*time.Second); derr != nil && perr == nil {
			perr = derr
		}
	}
	var lat, acks []float64
	rl := newRateLog(start)
	for _, p := range es.posters {
		for _, at := range p.doneAt {
			rl.done(at)
		}
		lat = append(lat, p.lat...)
		acks = append(acks, p.acks...)
		res.attempted += len(p.acks)
	}
	if perr != nil {
		res.failed++
		res.checkErr(perr)
	}

	// Ledger and recovery checks, per tenant.
	calls := brokerCalls(es.st.serve)
	for _, p := range es.posters {
		for _, t := range p.gen.tenants {
			a, err := es.st.serve.Accounting(t)
			if err != nil {
				res.checkErr(err)
				continue
			}
			res.checkErr(checkLedger(t, ledger{a.Posted, a.Delivered, a.Failures, a.DeadLettered, a.Dropped}, p.posts[t]))
			res.checkErr(checkRecovery(t, p.failed[t], calls[t]-es.calls0[t]))
		}
	}

	ph.events = lat
	ph.add(res)
	res.add("op_p50_us", "us", quantile(lat, 0.5))
	res.note("events %d, %.1f/s (median over %v windows); post->delivered p50 %.1f us, p99 %.1f us; wire ack p50 %.1f us",
		ph.ops, rl.rate(elapsed), rateWindow, quantile(lat, 0.5), quantile(lat, 0.99), quantile(acks, 0.5))
	return ph
}
