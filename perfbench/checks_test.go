package main

import "testing"

// Each check must pass on a faithful result and fail on a corrupted one.

func TestCheckWatch(t *testing.T) {
	written := []string{"a", "b", "c"}
	good := func() []delta {
		return []delta{
			{Seq: 5, Objects: []string{"a"}},
			{Seq: 6, Objects: []string{"x", "b"}},
			{Seq: 7, Objects: []string{"c"}},
		}
	}
	if err := checkWatch(4, written, good()); err != nil {
		t.Fatalf("faithful stream rejected: %v", err)
	}
	dropped := good()
	dropped = append(dropped[:1], dropped[2:]...)
	reordered := good()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	swapped := good()
	swapped[1].Objects, swapped[2].Objects = swapped[2].Objects, swapped[1].Objects
	gap := good()
	gap[2].Seq = 8
	extra := append(good(), delta{Seq: 8, Objects: []string{"c"}})
	for name, ds := range map[string][]delta{
		"dropped delta": dropped, "reordered deltas": reordered,
		"deltas naming the wrong writes": swapped, "sequence gap": gap, "extra delta": extra,
	} {
		if err := checkWatch(4, written, ds); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckEchoStaleRead(t *testing.T) {
	want := &object{ID: "p1", Class: "Person", Attrs: map[string]any{"name": "n", "role": "v-9"}}
	if err := checkEcho(want, []byte(`{"id":"p1","class":"Person","attrs":{"name":"n","role":"v-9"}}`)); err != nil {
		t.Fatalf("faithful read rejected: %v", err)
	}
	for name, body := range map[string]string{
		"stale read":    `{"id":"p1","class":"Person","attrs":{"name":"n","role":"v-8"}}`,
		"missing attr":  `{"id":"p1","class":"Person","attrs":{"name":"n"}}`,
		"wrong class":   `{"id":"p1","class":"Stream","attrs":{"name":"n","role":"v-9"}}`,
		"wrong object":  `{"id":"p2","class":"Person","attrs":{"name":"n","role":"v-9"}}`,
		"not an object": `[]`,
	} {
		if err := checkEcho(want, []byte(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	num := &object{ID: "s", Class: "Stream", Attrs: map[string]any{"bandwidth": 64.0}}
	if err := checkEcho(num, []byte(`{"id":"s","class":"Stream","attrs":{"bandwidth":64}}`)); err != nil {
		t.Errorf("numeric echo rejected: %v", err)
	}
	if err := checkEcho(num, []byte(`{"id":"s","class":"Stream","attrs":{"bandwidth":65}}`)); err == nil {
		t.Error("wrong number accepted")
	}
}

func TestCheckModel(t *testing.T) {
	m := newClientModel(modelDoc{Metamodel: "cml", Objects: []*object{
		{ID: "s", Class: "Session", Attrs: map[string]any{"topic": "t"}, Refs: map[string][]string{"participants": {"p", "q"}}},
		{ID: "p", Class: "Person", Attrs: map[string]any{"name": "a"}},
		{ID: "q", Class: "Person", Attrs: map[string]any{"name": "b"}},
	}})
	good := `{"metamodel":"cml","objects":[
		{"id":"q","class":"Person","attrs":{"name":"b"}},
		{"id":"s","class":"Session","attrs":{"topic":"t"},"refs":{"participants":["q","p"]}},
		{"id":"p","class":"Person","attrs":{"name":"a"}}]}`
	if err := checkModel(m, []byte(good)); err != nil {
		t.Fatalf("faithful model rejected: %v", err)
	}
	for name, body := range map[string]string{
		"lost object": `{"metamodel":"cml","objects":[
			{"id":"s","class":"Session","attrs":{"topic":"t"},"refs":{"participants":["q","p"]}},
			{"id":"p","class":"Person","attrs":{"name":"a"}}]}`,
		"stale attribute": `{"metamodel":"cml","objects":[
			{"id":"q","class":"Person","attrs":{"name":"old"}},
			{"id":"s","class":"Session","attrs":{"topic":"t"},"refs":{"participants":["q","p"]}},
			{"id":"p","class":"Person","attrs":{"name":"a"}}]}`,
		"dropped reference": `{"metamodel":"cml","objects":[
			{"id":"q","class":"Person","attrs":{"name":"b"}},
			{"id":"s","class":"Session","attrs":{"topic":"t"},"refs":{"participants":["p"]}},
			{"id":"p","class":"Person","attrs":{"name":"a"}}]}`,
		"wrong metamodel": `{"metamodel":"mgridml","objects":[]}`,
	} {
		if err := checkModel(m, []byte(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCheckLedger(t *testing.T) {
	good := ledger{Posted: 10, Delivered: 10}
	if err := checkLedger("t", good, 10); err != nil {
		t.Fatalf("faithful ledger rejected: %v", err)
	}
	for name, l := range map[string]ledger{
		"posted off by one":    {Posted: 11, Delivered: 10},
		"delivered off by one": {Posted: 10, Delivered: 9},
		"a failure":            {Posted: 10, Delivered: 9, Failures: 1},
		"a dead letter":        {Posted: 10, Delivered: 9, DeadLettered: 1},
		"a drop":               {Posted: 10, Delivered: 9, Dropped: 1},
	} {
		if err := checkLedger("t", l, 10); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := checkLedger("t", good, 11); err == nil {
		t.Error("ledger short of the client's posts accepted")
	}
}

func TestCheckRecovery(t *testing.T) {
	if err := checkRecovery("t", 7, 7*recoveryCallsPerFailure); err != nil {
		t.Fatalf("faithful recovery rejected: %v", err)
	}
	for _, calls := range []int64{6, 8, 0} {
		if err := checkRecovery("t", 7, calls); err == nil {
			t.Errorf("%d calls for 7 failures accepted", calls)
		}
	}
}

func TestLRUCold(t *testing.T) {
	// Capacity 2: a, b, c created (a parked by c); a is cold, then b is
	// cold (parked by a), c is cold, a is resident.
	touches := []string{"a", "b", "c", "a", "b", "c", "c", "b", "b", "a"}
	want := []bool{false, false, false, true, true, true, false, false, false, true}
	got := lruCold(touches, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("touch %d (%s): cold %v, want %v (all: %v)", i, touches[i], got[i], want[i], got)
		}
	}
	if err := checkRehydrations(touches, 2, 4); err != nil {
		t.Fatalf("faithful count rejected: %v", err)
	}
	for _, n := range []int64{3, 5, 0} {
		if err := checkRehydrations(touches, 2, n); err == nil {
			t.Errorf("rehydration count %d accepted", n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles 1..10 = %v", q)
	}
	if q := quartiles([]float64{3, 1, 2}); q != [3]float64{1, 2, 3} {
		t.Errorf("quartiles 1..3 = %v", q)
	}
}
