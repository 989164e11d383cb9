package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// object is one model object in the REST/codec wire form. The benchmark
// keeps its own copy of every model it drives in this form, built from the
// seed plus its own edits, and never from the program's answers.
type object struct {
	ID    string              `json:"id"`
	Class string              `json:"class,omitempty"`
	Attrs map[string]any      `json:"attrs,omitempty"`
	Refs  map[string][]string `json:"refs,omitempty"`
}

func (o *object) clone() *object {
	c := &object{ID: o.ID, Class: o.Class}
	if o.Attrs != nil {
		c.Attrs = make(map[string]any, len(o.Attrs))
		for k, v := range o.Attrs {
			c.Attrs[k] = v
		}
	}
	if o.Refs != nil {
		c.Refs = make(map[string][]string, len(o.Refs))
		for k, v := range o.Refs {
			c.Refs[k] = append([]string(nil), v...)
		}
	}
	return c
}

// modelDoc is a whole model in the codec's JSON form.
type modelDoc struct {
	Metamodel string    `json:"metamodel"`
	Objects   []*object `json:"objects"`
}

// clientModel is the benchmark's own account of one tenant's model.
type clientModel struct {
	metamodel string
	objs      map[string]*object
}

func newClientModel(doc modelDoc) *clientModel {
	m := &clientModel{metamodel: doc.Metamodel, objs: make(map[string]*object, len(doc.Objects))}
	for _, o := range doc.Objects {
		m.objs[o.ID] = o.clone()
	}
	return m
}

// ids returns the ids of every object of a class, sorted.
func (m *clientModel) ids(class string) []string {
	var out []string
	for id, o := range m.objs {
		if o.Class == class {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

var media = []string{"audio", "video", "chat"}

// cmlSeed generates a CML model: sessions, each containing streams and
// referring to a random subset of the persons. Every attribute is set
// explicitly, so the served model carries exactly the client's values.
func cmlSeed(rng *rand.Rand, sessions, streamsPer, persons, participantsPer int) modelDoc {
	doc := modelDoc{Metamodel: "cml"}
	for p := 0; p < persons; p++ {
		doc.Objects = append(doc.Objects, &object{ID: fmt.Sprintf("p%03d", p), Class: "Person",
			Attrs: map[string]any{"name": fmt.Sprintf("person-%d", rng.Intn(1e6)), "role": "participant"}})
	}
	for s := 0; s < sessions; s++ {
		sid := fmt.Sprintf("s%03d", s)
		sess := &object{ID: sid, Class: "Session",
			Attrs: map[string]any{"topic": fmt.Sprintf("topic-%d", rng.Intn(1e6))},
			Refs:  map[string][]string{}}
		for _, p := range rng.Perm(persons)[:participantsPer] {
			sess.Refs["participants"] = append(sess.Refs["participants"], fmt.Sprintf("p%03d", p))
		}
		sort.Strings(sess.Refs["participants"])
		// The session precedes its streams: the synthesis layer opens
		// streams in model order, and a stream needs its session.
		doc.Objects = append(doc.Objects, sess)
		for k := 0; k < streamsPer; k++ {
			stid := fmt.Sprintf("%s-st%d", sid, k)
			sess.Refs["streams"] = append(sess.Refs["streams"], stid)
			doc.Objects = append(doc.Objects, &object{ID: stid, Class: "Stream", Attrs: map[string]any{
				"media": media[rng.Intn(len(media))], "bandwidth": float64(32 + rng.Intn(480)), "session": sid,
			}})
		}
	}
	return doc
}

// mgridSeed generates an MGridML model: one microgrid holding energy
// policies (policy edits change the model only).
func mgridSeed(rng *rand.Rand, policies int) modelDoc {
	doc := modelDoc{Metamodel: "mgridml"}
	grid := &object{ID: "g0", Class: "Microgrid", Attrs: map[string]any{"name": "grid"}, Refs: map[string][]string{}}
	doc.Objects = append(doc.Objects, grid)
	for i := 0; i < policies; i++ {
		id := fmt.Sprintf("pol%d", i)
		grid.Refs["policies"] = append(grid.Refs["policies"], id)
		doc.Objects = append(doc.Objects, &object{ID: id, Class: "EnergyPolicy", Attrs: map[string]any{
			"name": fmt.Sprintf("policy-%d", rng.Intn(1e6)), "reserve": 0.2,
		}})
	}
	return doc
}

// write is one REST edit: its method, object, body, and the object as the
// client expects it afterwards (nil for a delete).
type write struct {
	Method string
	ID     string
	Body   []byte
	Want   *object
}

// editGen produces the model-edit workload's write sequence against a
// client model, applying each edit to the model as it is produced.
type editGen struct {
	rng     *rand.Rand
	m       *clientModel
	streams []string
	persons []string // seed persons (PATCH targets)
	guest   string   // the person the last PUT created, until a DELETE removes it
	n       int
}

func newEditGen(seed int64, m *clientModel) *editGen {
	return &editGen{rng: rand.New(rand.NewSource(seed)), m: m,
		streams: m.ids("Stream"), persons: m.ids("Person")}
}

// next returns the next write and applies it to the client model. The mix
// is 40% Stream bandwidth PATCH (dispatches reconfigureStream), 30% Person
// role PATCH, and 30% that alternate between a Person PUT (create) and a
// DELETE of the person created last time. Alternating, not drawing them
// independently, keeps the model at its seed size plus at most one:
// write costs grow with the model, and a random walk of its size would
// make a run's cost depend on the seed. Every write changes the model.
func (g *editGen) next() write {
	g.n++
	r := g.rng.Intn(100)
	switch {
	case r < 40:
		id := g.streams[g.rng.Intn(len(g.streams))]
		o := g.m.objs[id]
		bw := float64(32 + g.rng.Intn(480))
		if bw == o.Attrs["bandwidth"] {
			bw++
		}
		o.Attrs["bandwidth"] = bw
		return write{Method: "PATCH", ID: id,
			Body: mustJSON(object{Attrs: map[string]any{"bandwidth": bw}}), Want: o.clone()}
	case r < 70:
		id := g.persons[g.rng.Intn(len(g.persons))]
		o := g.m.objs[id]
		role := fmt.Sprintf("role-%d", g.n)
		o.Attrs["role"] = role
		return write{Method: "PATCH", ID: id,
			Body: mustJSON(object{Attrs: map[string]any{"role": role}}), Want: o.clone()}
	case g.guest == "":
		g.guest = fmt.Sprintf("x%06d", g.n)
		o := &object{ID: g.guest, Class: "Person", Attrs: map[string]any{
			"name": fmt.Sprintf("guest-%d", g.rng.Intn(1e6)), "role": "guest"}}
		g.m.objs[g.guest] = o
		return write{Method: "PUT", ID: g.guest, Body: mustJSON(o), Want: o.clone()}
	default:
		id := g.guest
		g.guest = ""
		delete(g.m.objs, id)
		return write{Method: "DELETE", ID: id}
	}
}

// readTarget picks the object to GET after a write: the written object, or
// for a delete a seed person.
func (g *editGen) readTarget(w write) string {
	if w.Method != "DELETE" {
		return w.ID
	}
	return g.persons[g.rng.Intn(len(g.persons))]
}
