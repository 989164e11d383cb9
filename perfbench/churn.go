package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/remote"
)

// tenant-churn: one closed-loop REST client spreads writes, reads and
// event posts over 48 small tenants, half on the cml bundle and half on
// mgrid, with a Zipf-skewed choice of tenant. Only 16 stay resident, so a
// steady share of operations finds its tenant parked and pays eviction of
// another tenant plus rehydration of its own. Checkpoint encode,
// domains.Restore and HTTP overhead dominate, not diff.

const (
	churnTenants  = 48
	churnResident = 16
	churnZipf     = 1.0 // popularity exponent: weight of rank r is 1/(r+1)^s
	churnWarmup   = 300
	// churnHeapOps is how many operations run after set-up before heap_mb
	// is read.
	churnHeapOps = 3000
	churnObjects = 4 // writable objects per tenant
)

type churnTenant struct {
	name, model string
	class, attr string
	ids         []string
	cm          *clientModel
	posts       int64
}

type churnOp struct {
	kind   string // "write", "read", "event"
	tenant *churnTenant
	id     string
	body   []byte
	want   *object
}

type churnState struct {
	st      *stack
	wire    *remote.Client
	tenants []*churnTenant
	rng     *rand.Rand
	cdf     []float64
	touches []string // every tenant touch, in order, from creation on
	n       int
}

func churnSeed(seed int64, i int) (string, modelDoc) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
	if i%2 == 0 {
		return "cml", cmlSeed(rng, 1, 1, churnObjects, 2)
	}
	return "mgrid", mgridSeed(rng, churnObjects)
}

func setupChurn(seed int64) (*churnState, error) {
	st, err := startStack(churnResident)
	if err != nil {
		return nil, err
	}
	cs := &churnState{st: st, rng: rand.New(rand.NewSource(seed))}
	if cs.wire, err = remote.Dial(st.wire.Addr()); err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < churnTenants; i++ {
		bundle, doc := churnSeed(seed, i)
		t := &churnTenant{name: tenantName("ch", i), model: doc.Metamodel, cm: newClientModel(doc)}
		if bundle == "cml" {
			t.class, t.attr = "Person", "role"
		} else {
			t.class, t.attr = "EnergyPolicy", "name"
		}
		t.ids = t.cm.ids(t.class)
		if err := st.createTenant(cs.wire, t.name, bundle, doc); err != nil {
			cs.close()
			return nil, err
		}
		cs.touches = append(cs.touches, t.name)
		cs.tenants = append(cs.tenants, t)
	}
	// Popularity: Zipf weights over ranks, with the seed choosing which
	// tenant holds each rank. Bundles alternate by rank (cml tenants are
	// shuffled over the even ranks, mgrid over the odd), so every seed
	// puts the same bundle mix at each popularity.
	weights := make([]float64, churnTenants)
	total := 0.0
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), churnZipf)
		total += weights[r]
	}
	for parity := 0; parity < 2; parity++ {
		var ranks []int
		for r := parity; r < churnTenants; r += 2 {
			ranks = append(ranks, r)
		}
		cs.rng.Shuffle(len(ranks), func(i, j int) {
			a, b := ranks[i], ranks[j]
			cs.tenants[a], cs.tenants[b] = cs.tenants[b], cs.tenants[a]
		})
	}
	acc := 0.0
	for _, w := range weights {
		acc += w / total
		cs.cdf = append(cs.cdf, acc)
	}
	for i := 0; i < churnWarmup; i++ {
		if _, err := cs.do(cs.next()); err != nil {
			cs.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return cs, nil
}

func (cs *churnState) close() {
	if cs.wire != nil {
		cs.wire.Close()
	}
	cs.st.close()
}

// next draws the next operation: 45% PATCH of one object's attribute, 35%
// GET of one object, 20% POST of an unmatched telemetry event.
func (cs *churnState) next() churnOp {
	cs.n++
	u := cs.rng.Float64()
	ti := 0
	for ti < len(cs.cdf)-1 && cs.cdf[ti] < u {
		ti++
	}
	t := cs.tenants[ti]
	id := t.ids[cs.rng.Intn(len(t.ids))]
	r := cs.rng.Intn(100)
	switch {
	case r < 45:
		o := t.cm.objs[id]
		v := fmt.Sprintf("v-%d", cs.n)
		o.Attrs[t.attr] = v
		return churnOp{kind: "write", tenant: t, id: id, want: o.clone(),
			body: mustJSON(object{Attrs: map[string]any{t.attr: v}})}
	case r < 80:
		return churnOp{kind: "read", tenant: t, id: id, want: t.cm.objs[id].clone()}
	default:
		return churnOp{kind: "event", tenant: t,
			body: mustJSON(map[string]any{"name": "telemetry", "attrs": map[string]any{"load": float64(cs.rng.Intn(100))}})}
	}
}

// do runs one operation and checks its answer; it logs the tenant touch.
func (cs *churnState) do(op churnOp) (time.Duration, error) {
	t := op.tenant
	cs.touches = append(cs.touches, t.name)
	var method, url string
	want := http.StatusOK
	switch op.kind {
	case "write":
		method, url = "PATCH", cs.st.base+"/tenants/"+t.name+"/models/"+t.model+"/objects/"+op.id
	case "read":
		method, url = "GET", cs.st.base+"/tenants/"+t.name+"/models/"+t.model+"/objects/"+op.id
	default:
		method, url, want = "POST", cs.st.base+"/tenants/"+t.name+"/events", http.StatusAccepted
	}
	t0 := time.Now()
	code, body, err := do(cs.st.http, method, url, op.body)
	d := time.Since(t0)
	if err != nil || code != want {
		return 0, fmt.Errorf("%s %s: %d %s %v", method, url, code, body, err)
	}
	switch op.kind {
	case "event":
		t.posts++
	default:
		if err := checkEcho(op.want, body); err != nil {
			return 0, fmt.Errorf("%s %s/%s: %w", op.kind, t.name, op.id, err)
		}
	}
	return d, nil
}

func runTenantChurn(seed int64, seconds int) (*result, error) {
	res := &result{}
	cs, err := setupRepeated(res, func() (*churnState, error) { return setupChurn(seed) },
		func(cs *churnState) { cs.close() })
	if err != nil {
		return nil, err
	}
	defer cs.close()
	for i := 0; i < churnHeapOps; i++ {
		res.attempted++
		if _, err := cs.do(cs.next()); err != nil {
			res.failed++
			res.checkErr(err)
			break
		}
	}
	addHeap(res)
	cs.measure(res, time.Duration(seconds)*time.Second)
	return res, nil
}

// measure runs the timed phase for d, then the residency, model and ledger
// checks, and adds the end-to-end metrics to res.
func (cs *churnState) measure(res *result, d time.Duration) *phase {
	rehyd := cs.st.serve.Obs().MetricsOf().Counter(obs.MServeRehydrations)
	first := len(cs.touches)
	var lat []float64
	byKind := map[string][]float64{}
	pr := startProbe()
	start := time.Now()
	rl := newRateLog(start)
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		op := cs.next()
		res.attempted++
		d, err := cs.do(op)
		if err != nil {
			res.failed++
			res.checkErr(err)
			break
		}
		rl.done(time.Now())
		lat = append(lat, us(d))
		byKind[op.kind] = append(byKind[op.kind], us(d))
	}
	elapsed := time.Since(start)
	ph := &phase{ops: len(lat)}
	pr.stop(ph)

	// Residency: the program's rehydrations against the client's LRU replay.
	res.checkErr(checkRehydrations(cs.touches, churnResident, rehyd.Value()))
	cold := lruCold(cs.touches, churnResident)
	var coldLat []float64
	for i, c := range cold[first : first+len(lat)] {
		if c {
			coldLat = append(coldLat, lat[i])
		}
	}
	// Every tenant's model and event ledger, read after the run.
	for _, t := range cs.tenants {
		code, body, err := do(cs.st.http, "GET", cs.st.base+"/tenants/"+t.name+"/models/"+t.model, nil)
		if err != nil || code != http.StatusOK {
			res.checkErr(fmt.Errorf("final GET %s: %d %v", t.name, code, err))
			continue
		}
		res.checkErr(checkModel(t.cm, body))
		a, err := waitDrained(cs, t.name, t.posts)
		if err != nil {
			res.checkErr(err)
			continue
		}
		res.checkErr(checkLedger(t.name, a, t.posts))
	}

	ph.coldShare = float64(len(coldLat)) / float64(len(lat))
	ph.add(res)
	res.add("op_p50_us", "us", quantile(lat, 0.5))
	res.note("ops %d, %.1f/s (median over %v windows), cold %d (%.1f%%), p99 %.1f us; p50 write %.1f us, read %.1f us, event %.1f us; cold p50 %.1f us",
		len(lat), rl.rate(elapsed), rateWindow, len(coldLat), 100*float64(len(coldLat))/float64(len(lat)), quantile(lat, 0.99),
		median(byKind["write"]), median(byKind["read"]), median(byKind["event"]), quantile(coldLat, 0.5))
	return ph
}

// waitDrained waits until a tenant has delivered every event the client
// posted to it (or a bound passes) and returns its ledger.
func waitDrained(cs *churnState, name string, posts int64) (ledger, error) {
	end := time.Now().Add(5 * time.Second)
	for {
		a, err := cs.st.serve.Accounting(name)
		if err != nil {
			return ledger{}, err
		}
		l := ledger{a.Posted, a.Delivered, a.Failures, a.DeadLettered, a.Dropped}
		if l.Delivered+l.Failures+l.DeadLettered+l.Dropped >= posts || time.Now().After(end) {
			return l, nil
		}
		time.Sleep(time.Millisecond)
	}
}
