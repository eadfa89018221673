// Package scenario implements the text scenario-program format: one
// validated, replayable program describing both what happens in the world
// (phased timelines of density, driver behavior, illumination, geometry,
// sensor windows, loop segments) and what happens to the pipeline (fault
// rules in the faultinject grammar). A program plus a seed is a complete,
// reproducible experiment: the scene generator replays the identical frame
// stream and the injector the identical fault sequence on every run.
//
// # Grammar
//
// A program is a sequence of statements separated by newlines or ";".
// "#" starts a comment that runs to the end of the line. Each statement is
// either a phase statement or a comma-separated list of fault rules:
//
//	phase 0-30s: density=8/km, driver=aggressive
//	phase 30-60s: illumination=0.4, blackout=2s@45s
//	DET:delay=30ms:every=5, LOC:err:p=0.2
//
// A phase statement is "phase <start>-<end>s: clause, clause, ...". Times
// are scenario seconds (the trailing "s" is optional); "<start>-" leaves
// the last phase open-ended. Clauses:
//
//	density=8/km       moving-vehicle density, held by an arrival process
//	peds=2/km          pedestrian/cyclist density
//	driver=aggressive  traffic profile: calm | aggressive (cut-in, hard-brake)
//	illumination=0.4   pixel scale (0,2], as Config.Illumination
//	egospeed=20        ego speed in m/s
//	lanewidth=3.2      lane width in meters
//	lanes=4            carriageway width in lanes
//	loop=120m          phase-scoped periodic loop segment (multiple of 6 m)
//	blackout=2s@45s    camera delivers black frames for 2s starting at t=45s
//	occlusion=3s@12s   a foreground occluder covers the view
//
// Unset parameters inherit across phase boundaries, so a phase states only
// what changes. Fault-rule statements use the faultinject grammar
// (STAGE:action[:modifier...]) unchanged — faultinject.Parse is a shim over
// this parser, so every legacy "-fault" spec is already a valid program.
//
// # Validation
//
// Parse statically validates the whole program before any frame renders:
// phase ordering and overlap, parameter ranges, loop-topology constraints
// (a loop segment with nonzero moving-actor density is rejected — loop
// worlds are static), window placement, and fault-rule well-formedness
// (ValidateFaults, which faultinject.New calls too). A parsed Program
// therefore always compiles into a running generator and injector.
package scenario

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"adsim/internal/scene"
)

// StageNames are the canonical pipeline stage names, the only targets a
// fault rule may name. They match pipeline.StageID.String in graph order
// (a pipeline test pins the two together), so a rule can never name a
// stage the injector's caller will not ask about.
var StageNames = []string{"SRC", "DET", "LOC", "TRA", "FUSION", "MISPLAN", "MOTPLAN", "CONTROL"}

// FaultRule is one fault source in a program: a target stage, a trigger
// (frame range, cadence, probability) and an action (delay and/or hard
// error). faultinject evaluates it as is (faultinject.Rule is this type).
type FaultRule struct {
	// Stage is one of StageNames.
	Stage string

	// Delay charges this duration against the stage's deadline budget
	// (and sleeps it under wall-clock enforcement) on frames the rule
	// fires.
	Delay time.Duration
	// Err injects a hard failure: the stage errors (the frame is
	// delivered with Err set, downstream stages skipped). An Err fired at
	// SRC is a dropped frame.
	Err bool

	// From and To bound the frames the rule applies to, inclusive.
	// To == 0 leaves the range open-ended.
	From, To int
	// Every fires the rule once per Every frames counted from From
	// (0 fires on every frame in range). Burst widens each firing to
	// that many consecutive frames (0 means 1) — a bursty stall.
	Every, Burst int
	// P, when in (0,1), additionally gates each firing on a
	// deterministic seeded coin flip keyed by (seed, rule, frame).
	P float64
}

// Program is one parsed, validated scenario program.
type Program struct {
	// Name identifies the program (library name or file base name); it may
	// be empty for inline programs.
	Name string
	// Source is the program text Parse consumed.
	Source string
	// Timeline is the compiled world timeline, nil when the program has no
	// phase statements (a pure fault program).
	Timeline *scene.Timeline
	// Faults are the program's fault rules in statement order.
	Faults []FaultRule
}

// Parse parses and statically validates a scenario program. name is used
// in error messages and may be empty.
func Parse(name, src string) (*Program, error) {
	p := &Program{Name: name, Source: src}
	var tl scene.Timeline
	for _, stmt := range statements(src) {
		if isPhaseStmt(stmt) {
			ph, err := parsePhase(stmt)
			if err != nil {
				return nil, p.wrap(err)
			}
			tl.Phases = append(tl.Phases, ph)
			continue
		}
		for _, tok := range strings.Split(stmt, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			r, err := parseFaultRule(tok)
			if err != nil {
				return nil, p.wrap(err)
			}
			p.Faults = append(p.Faults, r)
		}
	}
	if len(tl.Phases) > 0 {
		p.Timeline = &tl
	}
	if p.Timeline == nil && len(p.Faults) == 0 {
		return nil, fmt.Errorf("scenario: empty scenario program %q", src)
	}
	if err := p.Timeline.Validate(); err != nil {
		return nil, p.wrap(err)
	}
	if err := ValidateFaults(p.Faults); err != nil {
		return nil, p.wrap(err)
	}
	return p, nil
}

// MustParse is Parse that panics on a malformed program — for tests and
// compile-time-constant programs.
func MustParse(name, src string) *Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Program) wrap(err error) error {
	if p.Name == "" {
		return err
	}
	return fmt.Errorf("scenario %s: %w", p.Name, err)
}

// Configure returns base with the program's timeline attached. The base
// config provides everything the program leaves unstated — frame geometry,
// seed, initial actor counts, archetype — so an empty-timeline program
// degenerates to exactly the static config.
func (p *Program) Configure(base scene.Config) scene.Config {
	base.Timeline = p.Timeline
	return base
}

// String renders the program in canonical form: phase statements in
// timeline order, then one statement of fault rules. Parsing the result
// yields an equivalent program.
func (p *Program) String() string {
	var stmts []string
	if p.Timeline != nil {
		for _, ph := range p.Timeline.Phases {
			stmts = append(stmts, formatPhase(ph))
		}
	}
	if len(p.Faults) > 0 {
		rules := make([]string, len(p.Faults))
		for i, r := range p.Faults {
			rules[i] = formatFaultRule(r)
		}
		stmts = append(stmts, strings.Join(rules, ", "))
	}
	return strings.Join(stmts, ";\n")
}

// statements splits program text into trimmed, comment-stripped,
// non-empty statements.
func statements(src string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, stmt := range strings.Split(line, ";") {
			if stmt = strings.TrimSpace(stmt); stmt != "" {
				out = append(out, stmt)
			}
		}
	}
	return out
}

func isPhaseStmt(stmt string) bool {
	first, _, _ := strings.Cut(stmt, " ")
	return strings.EqualFold(first, "phase")
}

// parseSeconds parses a scenario time like "30", "30s" or "7.5s".
func parseSeconds(tok string) (float64, error) {
	tok = strings.TrimSuffix(strings.TrimSpace(tok), "s")
	return strconv.ParseFloat(tok, 64)
}

func parsePhase(stmt string) (scene.Phase, error) {
	rest := strings.TrimSpace(stmt[len("phase"):])
	header, body, _ := strings.Cut(rest, ":")
	lo, hi, ranged := strings.Cut(strings.TrimSpace(header), "-")
	if !ranged {
		return scene.Phase{}, fmt.Errorf(`scenario: phase %q needs a start-end range (e.g. "phase 0-30s:" or open-ended "phase 60s-:")`, stmt)
	}
	var ph scene.Phase
	var err error
	if ph.Start, err = parseSeconds(lo); err != nil {
		return scene.Phase{}, fmt.Errorf("scenario: phase %q: bad start time: %v", stmt, err)
	}
	if hi = strings.TrimSpace(hi); hi != "" {
		if ph.End, err = parseSeconds(hi); err != nil {
			return scene.Phase{}, fmt.Errorf("scenario: phase %q: bad end time: %v", stmt, err)
		}
	}
	for _, cl := range strings.Split(body, ",") {
		cl = strings.TrimSpace(cl)
		if cl == "" {
			continue
		}
		if err := parseClause(&ph, cl); err != nil {
			return scene.Phase{}, fmt.Errorf("scenario: phase %q: %w", stmt, err)
		}
	}
	return ph, nil
}

func parseClause(ph *scene.Phase, cl string) error {
	key, val, hasVal := strings.Cut(cl, "=")
	key = strings.ToLower(strings.TrimSpace(key))
	val = strings.TrimSpace(val)
	if !hasVal || val == "" {
		return fmt.Errorf("clause %q needs key=value", cl)
	}
	var err error
	switch key {
	case "density":
		ph.Density, err = strconv.ParseFloat(strings.TrimSuffix(val, "/km"), 64)
		ph.Set |= scene.SetDensity
	case "peds":
		ph.PedDensity, err = strconv.ParseFloat(strings.TrimSuffix(val, "/km"), 64)
		ph.Set |= scene.SetPedDensity
	case "driver":
		switch strings.ToLower(val) {
		case "calm":
			ph.Driver = scene.DriverCalm
		case "aggressive":
			ph.Driver = scene.DriverAggressive
		default:
			return fmt.Errorf("clause %q: unknown driver profile %q (calm|aggressive)", cl, val)
		}
		ph.Set |= scene.SetDriver
	case "illumination":
		ph.Illumination, err = strconv.ParseFloat(val, 64)
		ph.Set |= scene.SetIllumination
	case "egospeed":
		ph.EgoSpeed, err = strconv.ParseFloat(val, 64)
		ph.Set |= scene.SetEgoSpeed
	case "lanewidth":
		ph.LaneWidth, err = strconv.ParseFloat(strings.TrimSuffix(val, "m"), 64)
		ph.Set |= scene.SetLaneWidth
	case "lanes":
		ph.NumLanes, err = strconv.Atoi(val)
		ph.Set |= scene.SetNumLanes
	case "loop":
		ph.LoopLength, err = strconv.ParseFloat(strings.TrimSuffix(val, "m"), 64)
	case "blackout":
		var w scene.TimeWindow
		if w, err = parseWindow(val); err == nil {
			ph.Blackouts = append(ph.Blackouts, w)
		}
	case "occlusion":
		var w scene.TimeWindow
		if w, err = parseWindow(val); err == nil {
			ph.Occlusions = append(ph.Occlusions, w)
		}
	default:
		return fmt.Errorf("clause %q: unknown key %q", cl, key)
	}
	if err != nil {
		return fmt.Errorf("clause %q: bad %s: %v", cl, key, err)
	}
	return nil
}

// parseWindow parses "<duration>@<start>", e.g. "2s@45s": a 2-second
// window opening at t=45s.
func parseWindow(val string) (scene.TimeWindow, error) {
	durTok, atTok, ok := strings.Cut(val, "@")
	if !ok {
		return scene.TimeWindow{}, fmt.Errorf("window %q needs duration@start (e.g. 2s@45s)", val)
	}
	dur, err := time.ParseDuration(strings.TrimSpace(durTok))
	if err != nil {
		return scene.TimeWindow{}, err
	}
	at, err := parseSeconds(atTok)
	if err != nil {
		return scene.TimeWindow{}, err
	}
	return scene.TimeWindow{Start: at, End: at + dur.Seconds()}, nil
}

// parseFaultRule parses one STAGE:action[:modifier...] token — the
// faultinject rule grammar, hosted here so world and fault clauses share
// one parser (faultinject.Parse shims onto it).
func parseFaultRule(tok string) (FaultRule, error) {
	parts := strings.Split(tok, ":")
	if len(parts) < 2 {
		return FaultRule{}, fmt.Errorf("scenario: rule %q needs STAGE:action", tok)
	}
	r := FaultRule{Stage: strings.ToUpper(strings.TrimSpace(parts[0]))}
	for _, p := range parts[1:] {
		key, val, hasVal := strings.Cut(strings.TrimSpace(p), "=")
		var err error
		switch key {
		case "err", "drop":
			if hasVal {
				return FaultRule{}, fmt.Errorf("scenario: rule %q: %s takes no value", tok, key)
			}
			r.Err = true
		case "delay":
			r.Delay, err = time.ParseDuration(val)
		case "every":
			r.Every, err = strconv.Atoi(val)
		case "burst":
			r.Burst, err = strconv.Atoi(val)
		case "p":
			r.P, err = strconv.ParseFloat(val, 64)
		case "frames":
			r.From, r.To, err = parseFrameRange(val)
		default:
			return FaultRule{}, fmt.Errorf("scenario: rule %q: unknown field %q", tok, key)
		}
		if err != nil {
			return FaultRule{}, fmt.Errorf("scenario: rule %q: bad %s: %v", tok, key, err)
		}
	}
	return r, nil
}

// parseFrameRange parses "A-B", "A-" (open-ended) or "A" (a single frame)
// into the inclusive [From,To] convention where To == 0 means unbounded.
func parseFrameRange(s string) (from, to int, err error) {
	lo, hi, ranged := strings.Cut(s, "-")
	if from, err = strconv.Atoi(lo); err != nil {
		return 0, 0, err
	}
	switch {
	case !ranged:
		to = from
	case hi == "":
		to = 0
	default:
		if to, err = strconv.Atoi(hi); err != nil {
			return 0, 0, err
		}
	}
	if ranged && hi != "" && to < from {
		return 0, 0, fmt.Errorf("range %q is inverted", s)
	}
	return from, to, nil
}

// ValidateFaults checks every rule is well formed: a canonical target
// stage, an action, and a sane trigger. Parse and faultinject.New both
// call it, so a parsed program always compiles into an injector.
func ValidateFaults(rules []FaultRule) error {
	for i, r := range rules {
		if r.Stage == "" {
			return fmt.Errorf("scenario: rule %d has no target stage", i)
		}
		if !slices.Contains(StageNames, r.Stage) {
			return fmt.Errorf("scenario: rule %d targets unknown stage %q (want one of %s)", i, r.Stage, strings.Join(StageNames, " "))
		}
		if !r.Err && r.Delay <= 0 {
			return fmt.Errorf("scenario: rule %d (%s) has no action: set delay or err", i, r.Stage)
		}
		if r.Delay < 0 {
			return fmt.Errorf("scenario: rule %d (%s) has negative delay", i, r.Stage)
		}
		if r.From < 0 || r.To < 0 || (r.To > 0 && r.To < r.From) {
			return fmt.Errorf("scenario: rule %d (%s) has invalid frame range [%d,%d]", i, r.Stage, r.From, r.To)
		}
		if r.Every < 0 || r.Burst < 0 {
			return fmt.Errorf("scenario: rule %d (%s) has negative cadence", i, r.Stage)
		}
		if r.Burst > 0 && r.Every > 0 && r.Burst > r.Every {
			return fmt.Errorf("scenario: rule %d (%s) burst %d exceeds its period %d", i, r.Stage, r.Burst, r.Every)
		}
		if r.P < 0 || r.P > 1 {
			return fmt.Errorf("scenario: rule %d (%s) probability %v outside [0,1]", i, r.Stage, r.P)
		}
	}
	return nil
}

func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64) + "s"
}

func formatPhase(ph scene.Phase) string {
	var b strings.Builder
	b.WriteString("phase ")
	b.WriteString(formatSeconds(ph.Start))
	b.WriteString("-")
	if ph.End > 0 {
		b.WriteString(formatSeconds(ph.End))
	}
	b.WriteString(":")
	var cls []string
	add := func(format string, args ...any) { cls = append(cls, fmt.Sprintf(format, args...)) }
	if ph.Set.Has(scene.SetDensity) {
		add("density=%g/km", ph.Density)
	}
	if ph.Set.Has(scene.SetPedDensity) {
		add("peds=%g/km", ph.PedDensity)
	}
	if ph.Set.Has(scene.SetDriver) {
		add("driver=%s", ph.Driver)
	}
	if ph.Set.Has(scene.SetIllumination) {
		add("illumination=%g", ph.Illumination)
	}
	if ph.Set.Has(scene.SetEgoSpeed) {
		add("egospeed=%g", ph.EgoSpeed)
	}
	if ph.Set.Has(scene.SetLaneWidth) {
		add("lanewidth=%gm", ph.LaneWidth)
	}
	if ph.Set.Has(scene.SetNumLanes) {
		add("lanes=%d", ph.NumLanes)
	}
	if ph.LoopLength > 0 {
		add("loop=%gm", ph.LoopLength)
	}
	for _, w := range ph.Blackouts {
		add("blackout=%s@%s", time.Duration((w.End-w.Start)*float64(time.Second)).Round(time.Millisecond), formatSeconds(w.Start))
	}
	for _, w := range ph.Occlusions {
		add("occlusion=%s@%s", time.Duration((w.End-w.Start)*float64(time.Second)).Round(time.Millisecond), formatSeconds(w.Start))
	}
	if len(cls) > 0 {
		b.WriteString(" ")
		b.WriteString(strings.Join(cls, ", "))
	}
	return b.String()
}

func formatFaultRule(r FaultRule) string {
	var b strings.Builder
	b.WriteString(r.Stage)
	if r.Err {
		b.WriteString(":err")
	}
	if r.Delay > 0 {
		fmt.Fprintf(&b, ":delay=%s", r.Delay)
	}
	if r.Every > 0 {
		fmt.Fprintf(&b, ":every=%d", r.Every)
	}
	if r.Burst > 0 {
		fmt.Fprintf(&b, ":burst=%d", r.Burst)
	}
	if r.P > 0 {
		fmt.Fprintf(&b, ":p=%g", r.P)
	}
	switch {
	case r.From == 0 && r.To == 0:
	case r.To == 0:
		fmt.Fprintf(&b, ":frames=%d-", r.From)
	case r.From == r.To:
		fmt.Fprintf(&b, ":frames=%d", r.From)
	default:
		fmt.Fprintf(&b, ":frames=%d-%d", r.From, r.To)
	}
	return b.String()
}
