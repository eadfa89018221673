package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want string // substring of the error; "" means valid
	}{
		{"valid delay", Rule{Stage: "DET", Delay: time.Millisecond}, ""},
		{"valid err", Rule{Stage: "SRC", Err: true}, ""},
		{"no stage", Rule{Delay: time.Millisecond}, "no target stage"},
		{"unknown stage", Rule{Stage: "DTE", Err: true}, `unknown stage "DTE"`},
		{"io", Rule{Stage: "IO", Err: true, P: 0.5}, `unknown stage "IO"`},
		{"no action", Rule{Stage: "DET"}, "no action"},
		{"negative delay", Rule{Stage: "DET", Err: true, Delay: -1}, "negative delay"},
		{"negative from", Rule{Stage: "DET", Err: true, From: -1}, "invalid frame range"},
		{"inverted range", Rule{Stage: "DET", Err: true, From: 5, To: 2}, "invalid frame range"},
		{"negative cadence", Rule{Stage: "DET", Err: true, Every: -3}, "negative cadence"},
		{"burst over period", Rule{Stage: "DET", Err: true, Every: 2, Burst: 3}, "exceeds its period"},
		{"p too big", Rule{Stage: "DET", Err: true, P: 1.5}, "outside [0,1]"},
		{"p negative", Rule{Stage: "DET", Err: true, P: -0.1}, "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Scenario{Rules: []Rule{tc.rule}})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid rule rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestFiresTrigger(t *testing.T) {
	cases := []struct {
		name  string
		rule  Rule
		fires []int // frames in 0..19 the rule must fire on
	}{
		{"unconditional", Rule{Stage: "DET", Err: true},
			[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}},
		{"range", Rule{Stage: "DET", Err: true, From: 3, To: 5}, []int{3, 4, 5}},
		{"open range", Rule{Stage: "DET", Err: true, From: 17}, []int{17, 18, 19}},
		{"cadence", Rule{Stage: "DET", Err: true, Every: 6}, []int{0, 6, 12, 18}},
		{"cadence from", Rule{Stage: "DET", Err: true, From: 2, Every: 6}, []int{2, 8, 14}},
		{"burst", Rule{Stage: "DET", Err: true, Every: 7, Burst: 3},
			[]int{0, 1, 2, 7, 8, 9, 14, 15, 16}},
		{"range cadence", Rule{Stage: "DET", Err: true, From: 4, To: 12, Every: 4},
			[]int{4, 8, 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := map[int]bool{}
			for _, f := range tc.fires {
				want[f] = true
			}
			for frame := 0; frame < 20; frame++ {
				if got := fires(1, 0, tc.rule, frame); got != want[frame] {
					t.Errorf("frame %d: fires=%v, want %v", frame, got, want[frame])
				}
			}
		})
	}
}

// TestStageDeterminism is the core reproducibility contract: two injectors
// built from the same scenario answer identically for every (stage, frame),
// regardless of query order — including probabilistic rules.
func TestStageDeterminism(t *testing.T) {
	sc := MustParse("DET:delay=30ms:every=5,LOC:delay=80ms:p=0.4,MOTPLAN:err:frames=9-10,SRC:drop:p=0.1", 99)
	a, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"SRC", "DET", "LOC", "MOTPLAN"}
	// Query a forward, b backward: pure decisions cannot notice the order.
	type key struct {
		stage string
		frame int
	}
	got := map[key][2]string{}
	for f := 0; f < 200; f++ {
		for _, s := range stages {
			d, err := a.Stage(s, f)
			got[key{s, f}] = [2]string{d.String() + errSuffix(err), ""}
		}
	}
	for f := 199; f >= 0; f-- {
		for i := len(stages) - 1; i >= 0; i-- {
			s := stages[i]
			d, err := b.Stage(s, f)
			k := key{s, f}
			v := got[k]
			v[1] = d.String() + errSuffix(err)
			got[k] = v
		}
	}
	for k, v := range got {
		if v[0] != v[1] {
			t.Fatalf("%s frame %d: injector A says %q, B says %q", k.stage, k.frame, v[0], v[1])
		}
	}
}

func errSuffix(err error) string {
	if err == nil {
		return ""
	}
	return "|" + err.Error()
}

func TestStageErrorWinsAndWrapsSentinel(t *testing.T) {
	in, err := New(Scenario{Rules: []Rule{
		{Stage: "DET", Delay: 50 * time.Millisecond},
		{Stage: "DET", Err: true, From: 3, To: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := in.Stage("DET", 2); err != nil || d != 50*time.Millisecond {
		t.Fatalf("frame 2: (%v, %v), want (50ms, nil)", d, err)
	}
	_, err = in.Stage("DET", 3)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("frame 3 err = %v, want wrapped ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "DET fault at frame 3") {
		t.Fatalf("err %q does not name stage and frame", err)
	}
	if d, err := in.Stage("LOC", 3); d != 0 || err != nil {
		t.Fatalf("unmatched stage: (%v, %v), want (0, nil)", d, err)
	}
}

func TestStageLongestDelayWins(t *testing.T) {
	in, err := New(Scenario{Rules: []Rule{
		{Stage: "LOC", Delay: 20 * time.Millisecond},
		{Stage: "LOC", Delay: 70 * time.Millisecond, Every: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := in.Stage("LOC", 0); d != 70*time.Millisecond {
		t.Fatalf("frame 0 delay = %v, want the longer 70ms", d)
	}
	if d, _ := in.Stage("LOC", 1); d != 20*time.Millisecond {
		t.Fatalf("frame 1 delay = %v, want 20ms", d)
	}
}

// TestBernoulliProperties checks the seeded coin flip is deterministic,
// seed-sensitive and roughly calibrated.
func TestBernoulliProperties(t *testing.T) {
	const n = 20000
	hits := 0
	for f := 0; f < n; f++ {
		a := bernoulli(7, 0, f, 0.3)
		if b := bernoulli(7, 0, f, 0.3); a != b {
			t.Fatalf("frame %d: flip not deterministic", f)
		}
		if a {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("p=0.3 flip hit rate %.3f over %d frames", rate, n)
	}
	diff := 0
	for f := 0; f < n; f++ {
		if bernoulli(7, 0, f, 0.3) != bernoulli(8, 0, f, 0.3) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("changing the seed never changed a flip")
	}
}

func TestScenarioCopy(t *testing.T) {
	in, err := New(MustParse("DET:delay=5ms", 1))
	if err != nil {
		t.Fatal(err)
	}
	sc := in.Scenario()
	sc.Rules[0].Stage = "LOC"
	if d, _ := in.Stage("DET", 0); d != 5*time.Millisecond {
		t.Fatal("mutating the returned scenario changed the injector")
	}
}

func TestParse(t *testing.T) {
	sc, err := Parse("DET:delay=30ms:every=5, LOC:delay=80ms:frames=10-14, SRC:drop:every=50, CONTROL:err:p=0.2, MOTPLAN:err:frames=9, TRA:delay=1ms:frames=7-", 42)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 42 {
		t.Fatalf("seed = %d", sc.Seed)
	}
	want := []Rule{
		{Stage: "DET", Delay: 30 * time.Millisecond, Every: 5},
		{Stage: "LOC", Delay: 80 * time.Millisecond, From: 10, To: 14},
		{Stage: "SRC", Err: true, Every: 50},
		{Stage: "CONTROL", Err: true, P: 0.2},
		{Stage: "MOTPLAN", Err: true, From: 9, To: 9},
		{Stage: "TRA", Delay: time.Millisecond, From: 7, To: 0},
	}
	if len(sc.Rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(sc.Rules), len(want))
	}
	for i, w := range want {
		if sc.Rules[i] != w {
			t.Errorf("rule %d = %+v, want %+v", i, sc.Rules[i], w)
		}
	}
	if _, err := New(sc); err != nil {
		t.Fatalf("parsed scenario fails validation: %v", err)
	}
}

func TestParseLowercaseStage(t *testing.T) {
	sc, err := Parse("det:delay=1ms", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Rules[0].Stage != "DET" {
		t.Fatalf("stage = %q, want canonical upper case", sc.Rules[0].Stage)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"", "empty scenario"},
		{" , ,", "empty scenario"},
		{"DET", "needs STAGE:action"},
		{"DET:wibble=3", `unknown field "wibble"`},
		{"DET:err=yes", "err takes no value"},
		{"DET:drop=1", "drop takes no value"},
		{"DET:delay=fast", "bad delay"},
		{"DET:err:every=x", "bad every"},
		{"DET:err:burst=x", "bad burst"},
		{"DET:err:p=lots", "bad p"},
		{"DET:err:frames=a-b", "bad frames"},
		{"DET:err:frames=9-3", "inverted"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) err = %v, want substring %q", tc.spec, err, tc.want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on a malformed spec")
		}
	}()
	MustParse("DET", 0)
}
