package main

// The correctness checks every run ends with. Each compares what the
// program reported with what the benchmark computed on its own — from the
// seed, its own edits and its own touch sequence — so a check never
// trusts the program to grade itself.

import (
	"encoding/json"
	"fmt"
	"sort"
)

// sameValue compares two attribute values as JSON would carry them.
func sameValue(a, b any) bool {
	if fa, ok := toFloat(a); ok {
		fb, ok := toFloat(b)
		return ok && fa == fb
	}
	return fmt.Sprint(a) == fmt.Sprint(b)
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}

// sameObject reports how got differs from want, or nil when they carry the
// same class, attributes and references (reference order ignored).
func sameObject(want, got *object) error {
	if got == nil {
		return fmt.Errorf("object %s: missing", want.ID)
	}
	if want.ID != got.ID || want.Class != got.Class {
		return fmt.Errorf("object %s/%s: got %s/%s", want.ID, want.Class, got.ID, got.Class)
	}
	if len(want.Attrs) != len(got.Attrs) {
		return fmt.Errorf("object %s: attrs %v, got %v", want.ID, want.Attrs, got.Attrs)
	}
	for k, v := range want.Attrs {
		gv, ok := got.Attrs[k]
		if !ok || !sameValue(v, gv) {
			return fmt.Errorf("object %s: attr %s = %v, got %v", want.ID, k, v, gv)
		}
	}
	if len(nonEmpty(want.Refs)) != len(nonEmpty(got.Refs)) {
		return fmt.Errorf("object %s: refs %v, got %v", want.ID, want.Refs, got.Refs)
	}
	for k, v := range nonEmpty(want.Refs) {
		if !sameSet(v, got.Refs[k]) {
			return fmt.Errorf("object %s: ref %s = %v, got %v", want.ID, k, v, got.Refs[k])
		}
	}
	return nil
}

func nonEmpty(refs map[string][]string) map[string][]string {
	out := make(map[string][]string, len(refs))
	for k, v := range refs {
		if len(v) > 0 {
			out[k] = v
		}
	}
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a = append([]string(nil), a...)
	b = append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkEcho checks one acknowledged write or one read: the response body
// must be the object the client expects.
func checkEcho(want *object, body []byte) error {
	var got object
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("object %s: response: %w", want.ID, err)
	}
	return sameObject(want, &got)
}

// checkModel compares a full GET /models/{m} document with the client's
// own account of the model.
func checkModel(want *clientModel, body []byte) error {
	var got modelDoc
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if got.Metamodel != want.metamodel {
		return fmt.Errorf("model: metamodel %q, want %q", got.Metamodel, want.metamodel)
	}
	if len(got.Objects) != len(want.objs) {
		return fmt.Errorf("model: %d objects, want %d", len(got.Objects), len(want.objs))
	}
	for _, o := range got.Objects {
		w, ok := want.objs[o.ID]
		if !ok {
			return fmt.Errorf("model: unexpected object %s", o.ID)
		}
		if err := sameObject(w, o); err != nil {
			return fmt.Errorf("model: %w", err)
		}
	}
	return nil
}

// checkWatch checks a watch stream against the writes that changed the
// model, in the order the client made them: one delta per write, sequence
// numbers gap-free from the snapshot's, each delta naming its write's
// object.
func checkWatch(snapSeq uint64, written []string, deltas []delta) error {
	if len(deltas) != len(written) {
		return fmt.Errorf("watch: %d deltas for %d writes", len(deltas), len(written))
	}
	for i, d := range deltas {
		if want := snapSeq + uint64(i) + 1; d.Seq != want {
			return fmt.Errorf("watch: delta %d has seq %d, want %d", i, d.Seq, want)
		}
		found := false
		for _, id := range d.Objects {
			found = found || id == written[i]
		}
		if !found {
			return fmt.Errorf("watch: delta seq %d names %v, want write of %s", d.Seq, d.Objects, written[i])
		}
	}
	return nil
}

// ledger is one tenant's event accounting as the program reports it.
type ledger struct {
	Posted, Delivered, Failures, DeadLettered, Dropped int64
}

// checkLedger checks a drained tenant's event accounting against the
// number of events the client posted to it: every posted event is
// accounted for exactly once, and all of them were delivered.
func checkLedger(tenant string, l ledger, clientPosts int64) error {
	if l.Posted != l.Delivered+l.Failures+l.DeadLettered+l.Dropped {
		return fmt.Errorf("ledger %s: posted %d != delivered %d + failures %d + dead-lettered %d + dropped %d",
			tenant, l.Posted, l.Delivered, l.Failures, l.DeadLettered, l.Dropped)
	}
	if l.Posted != clientPosts || l.Delivered != clientPosts {
		return fmt.Errorf("ledger %s: posted %d, delivered %d, client posted %d",
			tenant, l.Posted, l.Delivered, clientPosts)
	}
	return nil
}

// recoveryCallsPerFailure is the number of broker calls the cml bundle's
// middleware model makes for one streamFailed event: the UCM forwards the
// event to the SE, whose LTS answers with one recoverStream command, which
// the UCM realises as one reconfigureStream broker call.
const recoveryCallsPerFailure = 1

// checkRecovery checks that delivered streamFailed events caused exactly
// the recovery calls the bundle defines, and unmatched events none.
func checkRecovery(tenant string, failures, brokerCalls int64) error {
	if want := failures * recoveryCallsPerFailure; brokerCalls != want {
		return fmt.Errorf("recovery %s: %d broker calls for %d streamFailed events, want %d",
			tenant, brokerCalls, failures, want)
	}
	return nil
}

// lruCold replays a touch sequence against an LRU residency set of the
// given capacity and marks each touch that finds its tenant parked: seen
// before, but not among the capacity most recently touched tenants. A
// tenant's first touch creates it and is never cold.
func lruCold(touches []string, capacity int) []bool {
	cold := make([]bool, len(touches))
	last := make(map[string]int, 64) // tenant -> index of its latest touch
	for i, t := range touches {
		if j, seen := last[t]; seen {
			// Resident iff fewer than capacity other tenants were touched
			// since t's previous touch.
			distinct := 0
			for _, k := range last {
				if k > j {
					distinct++
				}
			}
			cold[i] = distinct >= capacity
		}
		last[t] = i
	}
	return cold
}

// checkRehydrations compares the program's rehydration count with the
// number of cold touches the client's own LRU replay predicts.
func checkRehydrations(touches []string, capacity int, rehydrations int64) error {
	want := int64(0)
	for _, c := range lruCold(touches, capacity) {
		if c {
			want++
		}
	}
	if rehydrations != want {
		return fmt.Errorf("rehydrations: program counted %d, LRU replay of %d touches predicts %d",
			rehydrations, len(touches), want)
	}
	return nil
}
