package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"github.com/mddsm/mddsm/internal/remote"
)

// model-edit: one closed-loop REST client edits one tenant's 300-object
// CML model — PATCH, PUT and DELETE, each followed by a one-object GET —
// while one SSE /watch connection times how long each write takes to reach
// watchers. Validate, diff, clone and commit dominate; the event path is
// idle.

const (
	editTenant     = "edit"
	editSessions   = 20 // x (4 streams + 1 session) + 200 persons = 300 objects
	editStreamsPer = 4
	editPersons    = 200
	editPartsPer   = 6
	editWarmup     = 60 // writes before timing starts
	// editHeapOps is how many writes, each with its read, run after set-up
	// before heap_mb is read: enough to fill the serve host's 256-entry
	// validation cache, after which the heap stays level.
	editHeapOps = 300
)

// editState is one set-up model-edit stack, ready for the timed phase.
type editState struct {
	st     *stack
	tenant string
	wire   *remote.Client
	model  *clientModel
	gen    *editGen
	w      *watcher
	// written lists, in order, the object of every write that changed the
	// model since the watch opened; sent holds when each was sent.
	written []string
	sent    []time.Time
}

func editSeed(seed int64) modelDoc {
	return cmlSeed(rand.New(rand.NewSource(seed)), editSessions, editStreamsPer, editPersons, editPartsPer)
}

// setupEdit starts the stack, provisions and seeds the tenant, opens the
// watch and warms the write path up.
func setupEdit(seed int64) (*editState, error) {
	st, err := startStack(0)
	if err != nil {
		return nil, err
	}
	s := &editState{st: st, tenant: editTenant}
	if s.wire, err = remote.Dial(st.wire.Addr()); err != nil {
		st.close()
		return nil, err
	}
	doc := editSeed(seed)
	if err := st.createTenant(s.wire, editTenant, "cml", doc); err != nil {
		s.close()
		return nil, err
	}
	s.model = newClientModel(doc)
	s.gen = newEditGen(seed+1, s.model)
	if s.w, err = st.watch(editTenant); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < editWarmup; i++ {
		if _, _, err := s.op(); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *editState) close() {
	if s.w != nil {
		s.w.stop()
	}
	if s.wire != nil {
		s.wire.Close()
	}
	s.st.close()
}

func (s *editState) url(id string) string {
	return s.st.base + "/tenants/" + s.tenant + "/models/cml/objects/" + id
}

// op runs one write and the GET after it, checking both answers against
// the client's model. It returns the two round-trip times.
func (s *editState) op() (time.Duration, time.Duration, error) {
	wr := s.gen.next()
	t0 := time.Now()
	code, body, err := do(s.st.http, wr.Method, s.url(wr.ID), wr.Body)
	dw := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	s.written = append(s.written, wr.ID)
	s.sent = append(s.sent, t0)
	switch {
	case wr.Method == "DELETE":
		if code != http.StatusNoContent {
			return 0, 0, fmt.Errorf("DELETE %s: %d %s", wr.ID, code, body)
		}
	case code != http.StatusOK && code != http.StatusCreated:
		return 0, 0, fmt.Errorf("%s %s: %d %s", wr.Method, wr.ID, code, body)
	default:
		if err := checkEcho(wr.Want, body); err != nil {
			return 0, 0, fmt.Errorf("%s ack: %w", wr.Method, err)
		}
	}
	id := s.gen.readTarget(wr)
	t1 := time.Now()
	code, body, err = do(s.st.http, "GET", s.url(id), nil)
	dr := time.Since(t1)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: %d %s %v", id, code, body, err)
	}
	if err := checkEcho(s.model.objs[id], body); err != nil {
		return 0, 0, fmt.Errorf("read: %w", err)
	}
	return dw, dr, nil
}

func runModelEdit(seed int64, seconds int) (*result, error) {
	res := &result{}
	s, err := setupRepeated(res, func() (*editState, error) { return setupEdit(seed) },
		func(s *editState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	for i := 0; i < editHeapOps; i++ {
		res.attempted += 2
		if _, _, err := s.op(); err != nil {
			res.failed += 2
			res.checkErr(err)
			break
		}
	}
	addHeap(res)
	s.measure(res, time.Duration(seconds)*time.Second)
	return res, nil
}

// measure runs the timed phase for d, then the end-of-run checks, and
// adds the end-to-end metrics to res.
func (s *editState) measure(res *result, d time.Duration) *phase {
	base := len(s.written)
	var writes, reads []float64
	pr := startProbe()
	start := time.Now()
	rl := newRateLog(start)
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		res.attempted += 2
		dw, dr, err := s.op()
		if err != nil {
			res.failed += 2
			res.checkErr(err)
			break
		}
		rl.done(time.Now())
		writes = append(writes, us(dw))
		reads = append(reads, us(dr))
	}
	elapsed := time.Since(start)
	ph := &phase{ops: len(writes) + len(reads), writes: writes}
	pr.stop(ph)

	// Watch visibility: the delta carrying each timed write.
	s.w.waitFor(len(s.written), 5*time.Second)
	snap, deltas := s.w.snapSeq, s.w.stop()
	s.w = nil
	res.checkErr(checkWatch(snap, s.written, deltas))
	var watch []float64
	for i := base; i < len(s.written) && i < len(deltas); i++ {
		watch = append(watch, us(deltas[i].At.Sub(s.sent[i])))
	}
	code, body, err := do(s.st.http, "GET", s.st.base+"/tenants/"+editTenant+"/models/cml", nil)
	if err != nil || code != http.StatusOK {
		res.checkErr(fmt.Errorf("final GET: %d %v", code, err))
	} else {
		res.checkErr(checkModel(s.model, body))
	}

	ph.add(res)
	res.add("op_p50_us", "us", quantile(writes, 0.5))
	res.note("ops %d, %.1f/s (median over %v windows); write p50 %.1f us, p99 %.1f us; read p50 %.1f us; watch p50 %.1f us (%d deltas)",
		ph.ops, 2*rl.rate(elapsed), rateWindow, quantile(writes, 0.5), quantile(writes, 0.99), quantile(reads, 0.5),
		quantile(watch, 0.5), len(watch))
	return ph
}

// phase holds the raw figures of one timed phase that the ladder reuses.
type phase struct {
	ops       int // completed client operations
	allocKB   float64
	gcs       uint32
	cpuUS     float64   // process CPU time, user and system
	coldShare float64   // share of operations that found their tenant parked
	writes    []float64 // REST write round trips, us (model-edit)
	events    []float64 // post -> delivered latencies, us (event-stream)
}

// add reports the phase's CPU time per completed operation.
func (ph *phase) add(res *result) {
	ops := float64(ph.ops)
	if ops < 1 {
		ops = 1
	}
	res.add("cpu_us_per_op", "us", ph.cpuUS/ops)
}
