package scenario

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withScenarios swaps in a temporary registry for the duration of the test.
func withScenarios(t *testing.T, scs ...Scenario) {
	t.Helper()
	saved := registry
	resetRegistry()
	for _, s := range scs {
		Register(s)
	}
	t.Cleanup(func() { registry = saved })
}

func fakeScenario(id, name string, tags ...string) Scenario {
	return Scenario{
		ID: id, Name: name, Title: "title of " + id, Tags: tags,
		Run: func(ctx *Ctx) *Table {
			t := NewTable(id, "title of "+id, "a", "b")
			t.AddRow("1", "2")
			t.AddNote("note for %s", id)
			return t
		},
	}
}

func TestRegistryMatch(t *testing.T) {
	withScenarios(t,
		fakeScenario("E01", "alpha", "model"),
		fakeScenario("E02", "beta", "percolation"),
		fakeScenario("E11", "power-stretch", "power", "sens"),
	)
	cases := []struct {
		patterns []string
		want     []string
	}{
		{[]string{"all"}, []string{"E01", "E02", "E11"}},
		{[]string{"*"}, []string{"E01", "E02", "E11"}},
		{[]string{"E02"}, []string{"E02"}},
		{[]string{"beta"}, []string{"E02"}},
		{[]string{"E0?"}, []string{"E01", "E02"}},
		{[]string{"power-*"}, []string{"E11"}},
		{[]string{"tag:power"}, []string{"E11"}},
		{[]string{"tag:model", "tag:percolation"}, []string{"E01", "E02"}},
		// Duplicates collapse; order is registration order, not pattern order.
		{[]string{"E11", "E01", "E11"}, []string{"E01", "E11"}},
	}
	for _, c := range cases {
		got, err := Match(c.patterns)
		if err != nil {
			t.Errorf("Match(%v): %v", c.patterns, err)
			continue
		}
		var ids []string
		for _, s := range got {
			ids = append(ids, s.ID)
		}
		if fmt.Sprint(ids) != fmt.Sprint(c.want) {
			t.Errorf("Match(%v) = %v, want %v", c.patterns, ids, c.want)
		}
	}
	if _, err := Match([]string{"nope"}); err == nil {
		t.Error("pattern matching nothing should error")
	}
	// An all-blank selector list (a mis-expanded shell variable) must error,
	// not silently select nothing.
	for _, blank := range [][]string{nil, {""}, {" ", "\t"}} {
		if _, err := Match(blank); err == nil {
			t.Errorf("Match(%q) should error on empty selector", blank)
		}
	}
	if Find("alpha") == nil || Find("E02") == nil || Find("zzz") != nil {
		t.Error("Find lookups wrong")
	}
	if tags := Tags(); fmt.Sprint(tags) != "[model percolation power sens]" {
		t.Errorf("Tags() = %v", tags)
	}
}

// TestMatchOverlappingSelectors pins the selection semantics when several
// patterns hit the same scenarios: overlapping globs, a tag covering a
// glob's matches, and exact IDs repeated through both must collapse to one
// instance each, in registration order — never pattern order, never
// duplicated into a double engine run.
func TestMatchOverlappingSelectors(t *testing.T) {
	withScenarios(t,
		fakeScenario("E01", "alpha", "sens"),
		fakeScenario("E02", "beta", "sens", "power"),
		fakeScenario("E11", "power-stretch", "power"),
		fakeScenario("H01", "hng-sweep", "hng"),
	)
	cases := []struct {
		patterns []string
		want     []string
	}{
		// Two globs overlapping on E01/E02.
		{[]string{"E0?", "E*"}, []string{"E01", "E02", "E11"}},
		// A tag covering a subset of a glob, plus an exact ID already matched.
		{[]string{"E*", "tag:power", "E02"}, []string{"E01", "E02", "E11"}},
		// Tag + name + glob all hitting the same scenario exactly once.
		{[]string{"tag:hng", "hng-sweep", "H0?"}, []string{"H01"}},
		// Later patterns cannot reorder: H01 selected first still emits last.
		{[]string{"H01", "tag:sens"}, []string{"E01", "E02", "H01"}},
	}
	for _, c := range cases {
		got, err := Match(c.patterns)
		if err != nil {
			t.Errorf("Match(%v): %v", c.patterns, err)
			continue
		}
		var ids []string
		for _, s := range got {
			ids = append(ids, s.ID)
		}
		if fmt.Sprint(ids) != fmt.Sprint(c.want) {
			t.Errorf("Match(%v) = %v, want %v", c.patterns, ids, c.want)
		}
	}
	// An unknown ID errors even when other patterns in the list match —
	// a typo must not silently shrink the selection.
	if _, err := Match([]string{"E01", "E99"}); err == nil {
		t.Error("unknown ID alongside valid patterns should error")
	} else if !strings.Contains(err.Error(), "E99") {
		t.Errorf("error should name the failing pattern: %v", err)
	}
	// An unknown tag is the same error path.
	if _, err := Match([]string{"tag:nope"}); err == nil {
		t.Error("unknown tag should error")
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	withScenarios(t, fakeScenario("E01", "alpha"))
	for _, dup := range []Scenario{fakeScenario("E01", "other"), fakeScenario("E99", "alpha")} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %s/%s did not panic", dup.ID, dup.Name)
				}
			}()
			Register(dup)
		}()
	}
}

func TestCacheBuildsOncePerKey(t *testing.T) {
	c := NewCache()
	var builds atomic.Int64
	const workers = 16
	var wg sync.WaitGroup
	out := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = Get(c, "k", func() int {
				builds.Add(1)
				return 42
			})
		}(w)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("key built %d times under concurrency, want 1", builds.Load())
	}
	for _, v := range out {
		if v != 42 {
			t.Fatal("wrong cached value")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != workers-1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	// A second key builds independently.
	if Get(c, "k2", func() int { return 7 }) != 7 {
		t.Error("second key wrong")
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats after second key = %+v", st)
	}
}

// TestEngineEmitsInRegistrationOrder pins the ordered-emission contract:
// whatever the concurrency, sink output is the same bytes in the same
// order.
func TestEngineEmitsInRegistrationOrder(t *testing.T) {
	var scs []Scenario
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("S%02d", i)
		sc := fakeScenario(id, "name-"+id)
		if i%3 == 0 { // make early scenarios slow so later ones finish first
			inner := sc.Run
			sc.Run = func(ctx *Ctx) *Table {
				time.Sleep(20 * time.Millisecond)
				return inner(ctx)
			}
		}
		scs = append(scs, sc)
	}
	withScenarios(t, scs...)

	render := func(jobs int) string {
		var buf bytes.Buffer
		eng := NewEngine(NewTextSink(&buf))
		eng.Jobs = jobs
		if _, err := eng.Run(Config{Seed: 1}, All()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	concurrent := render(8)
	if serial != concurrent {
		t.Errorf("sink output differs between Jobs=1 and Jobs=8:\n%s\n---\n%s", serial, concurrent)
	}
	// Order check: S00 .. S07 appear in order.
	last := -1
	for i := 0; i < 8; i++ {
		idx := strings.Index(serial, fmt.Sprintf("S%02d —", i))
		if idx < 0 || idx < last {
			t.Fatalf("table S%02d missing or out of order:\n%s", i, serial)
		}
		last = idx
	}
}

func TestEngineSharesCacheAcrossScenarios(t *testing.T) {
	var builds atomic.Int64
	mk := func(id string) Scenario {
		return Scenario{ID: id, Name: "n" + id, Title: id, Run: func(ctx *Ctx) *Table {
			Get(ctx.Cache, "shared", func() int { builds.Add(1); return 1 })
			return NewTable(id, id)
		}}
	}
	withScenarios(t, mk("A1"), mk("A2"), mk("A3"))
	eng := NewEngine(nil)
	eng.Jobs = 3
	if _, err := eng.Run(Config{}, All()); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 1 {
		t.Errorf("shared structure built %d times across scenarios, want 1", builds.Load())
	}
	if st := eng.Cache.Stats(); st.Hits != 2 {
		t.Errorf("want 2 hits, got %+v", st)
	}
}

func TestTextSinkMatchesTableString(t *testing.T) {
	tab := NewTable("X", "demo", "col a", "b")
	tab.AddRow("1", "22")
	tab.AddRow("333", "4")
	tab.AddNote("hello %d", 5)

	var buf bytes.Buffer
	if err := NewTextSink(&buf).Table(tab, 0); err != nil {
		t.Fatal(err)
	}
	if buf.String() != tab.String() {
		t.Errorf("text sink diverges from Table.String:\n%q\nvs\n%q", buf.String(), tab.String())
	}
}

func TestCSVSink(t *testing.T) {
	tab := NewTable("E99", "demo", "a", "b")
	tab.AddRow("1", "x,y") // comma forces quoting
	tab.AddNote("n1")
	var buf bytes.Buffer
	if err := NewCSVSink(&buf).Table(tab, 0); err != nil {
		t.Fatal(err)
	}
	want := "scenario,a,b\nE99,1,\"x,y\"\nE99,note,n1\n"
	if buf.String() != want {
		t.Errorf("csv output %q, want %q", buf.String(), want)
	}
}

// TestCSVSinkEscaping pins RFC-4180 escaping for the cell values the
// experiment tables actually produce: commas (multi-value cells), double
// quotes (inch marks, quoted parameters) and embedded newlines must arrive
// quoted/doubled so a reader recovers the original cells byte-for-byte.
func TestCSVSinkEscaping(t *testing.T) {
	tab := NewTable("E99", "demo", "a", "b", "c")
	tab.AddRow(`x,y`, `say "hi"`, "line1\nline2")
	tab.AddRow(`plain`, `,"`, ``)
	tab.AddNote(`note with, comma and "quotes"`)
	var buf bytes.Buffer
	if err := NewCSVSink(&buf).Table(tab, 0); err != nil {
		t.Fatal(err)
	}
	want := "scenario,a,b,c\n" +
		"E99,\"x,y\",\"say \"\"hi\"\"\",\"line1\nline2\"\n" +
		"E99,plain,\",\"\"\",\n" +
		"E99,note,\"note with, comma and \"\"quotes\"\"\"\n"
	if buf.String() != want {
		t.Errorf("csv escaping wrong:\n got %q\nwant %q", buf.String(), want)
	}
	// Round trip: a CSV reader must recover the original cells. Note
	// records carry 3 fields against the header's 4, so field-count
	// checking is off.
	r := csv.NewReader(strings.NewReader(buf.String()))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV unreadable: %v", err)
	}
	if fmt.Sprint(recs[1]) != fmt.Sprint([]string{"E99", "x,y", `say "hi"`, "line1\nline2"}) {
		t.Errorf("round-tripped row = %q", recs[1])
	}
}

// TestJSONLSinkEscaping pins JSON escaping of quotes, commas, backslashes
// and newlines in cells and notes: every emitted line must be valid JSON
// that round-trips to the original strings.
func TestJSONLSinkEscaping(t *testing.T) {
	tab := NewTable("E99", `title "quoted", with comma`, "a", "b")
	tab.AddRow(`cell "with" quotes`, "back\\slash and\nnewline")
	tab.AddNote(`note, with "both"`)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Timings = false
	if err := sink.Table(tab, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 events, got %d:\n%s", len(lines), buf.String())
	}
	var ev jsonlEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("table event not JSON: %v", err)
	}
	if ev.Title != `title "quoted", with comma` {
		t.Errorf("title round trip = %q", ev.Title)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("row event not JSON: %v", err)
	}
	if ev.Cells[0] != `cell "with" quotes` || ev.Cells[1] != "back\\slash and\nnewline" {
		t.Errorf("cells round trip = %q", ev.Cells)
	}
	if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil {
		t.Fatalf("note event not JSON: %v", err)
	}
	if ev.Text != `note, with "both"` {
		t.Errorf("note round trip = %q", ev.Text)
	}
}

func TestJSONLSink(t *testing.T) {
	tab := NewTable("E99", "demo", "a", "b")
	tab.AddRow("1", "2")
	tab.AddNote("n1")
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	if err := sink.Table(tab, 1500*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 events, got %d:\n%s", len(lines), buf.String())
	}
	var ev jsonlEvent
	for i, want := range []jsonlEvent{
		{Event: "table", ID: "E99", Title: "demo", Columns: []string{"a", "b"}},
		{Event: "row", ID: "E99", Cells: []string{"1", "2"}},
		{Event: "note", ID: "E99", Text: "n1"},
		{Event: "done", ID: "E99", Millis: 1.5},
	} {
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ev.Event != want.Event || ev.ID != want.ID || ev.Text != want.Text ||
			ev.Millis != want.Millis || fmt.Sprint(ev.Cells) != fmt.Sprint(want.Cells) ||
			fmt.Sprint(ev.Columns) != fmt.Sprint(want.Columns) {
			t.Errorf("line %d = %+v, want %+v", i, ev, want)
		}
		ev = jsonlEvent{}
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{Scale: 0.25}
	if got := c.Trials(100, 10); got != 25 {
		t.Errorf("Trials = %d", got)
	}
	if got := c.Size(40, 5); got < 19 || got > 21 {
		t.Errorf("Size = %v", got)
	}
	if got := (Config{Scale: 3}).Size(40, 5); got != 40 {
		t.Errorf("Size should not grow above base: %v", got)
	}
}
