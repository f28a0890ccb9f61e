package synth

import (
	"reflect"
	"testing"

	"crossmodal/internal/xrand"
)

func testSchedule(seed int64) DriftSchedule {
	return DriftSchedule{
		Seed: seed,
		Epochs: []Epoch{
			{N: 100},
			{N: 100, TopicShift: 2.0, URLShift: 1.5, Decay: 0.3},
			{N: 100, Decay: 0.3},
		},
	}
}

func newTestTraffic(t *testing.T, seed int64) *Traffic {
	t.Helper()
	w := MustWorld(DefaultConfig())
	task := StandardTasks()[0]
	tr, err := NewTraffic(w, task, testSchedule(seed))
	if err != nil {
		t.Fatalf("NewTraffic: %v", err)
	}
	return tr
}

func TestScheduleValidation(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task := StandardTasks()[0]
	bad := []DriftSchedule{
		{Seed: 1},                          // no epochs
		{Seed: 1, Epochs: []Epoch{{N: 0}}}, // empty epoch
		{Seed: 1, Epochs: []Epoch{{N: 10, TopicShift: -1}}}, // negative shift
		{Seed: 1, Epochs: []Epoch{{N: 10, Decay: 1.0}}},     // decay out of range
	}
	for i, sched := range bad {
		if _, err := NewTraffic(w, task, sched); err == nil {
			t.Errorf("schedule %d accepted, want error", i)
		}
	}
}

func TestTrafficEpochBoundaries(t *testing.T) {
	tr := newTestTraffic(t, 11)
	if got := tr.Total(); got != 300 {
		t.Fatalf("Total = %d, want 300", got)
	}
	cases := []struct{ id, epoch int }{
		{0, 0}, {99, 0}, {100, 1}, {199, 1}, {200, 2}, {299, 2},
		// The last regime persists past the schedule's end.
		{300, 2}, {10000, 2},
	}
	for _, c := range cases {
		if got := tr.EpochOf(c.id); got != c.epoch {
			t.Errorf("EpochOf(%d) = %d, want %d", c.id, got, c.epoch)
		}
	}
}

// Shifted epochs get fresh worlds; zero-shift epochs alias the previous
// world, and the base world is never mutated.
func TestTrafficWorldSharingAndBaseImmutability(t *testing.T) {
	w := MustWorld(DefaultConfig())
	baseTopics := append([]float64(nil), w.TopicPopularity(Image)...)
	baseURLs := append([]float64(nil), w.URLPopularity(Image)...)

	task := StandardTasks()[0]
	tr, err := NewTraffic(w, task, testSchedule(11))
	if err != nil {
		t.Fatal(err)
	}

	if tr.WorldAt(0) != w {
		t.Error("zero-shift epoch 0 should alias the base world")
	}
	if tr.WorldAt(1) == w {
		t.Error("shifted epoch 1 should get its own world")
	}
	if tr.WorldAt(2) != tr.WorldAt(1) {
		t.Error("zero-shift epoch 2 should alias epoch 1's world")
	}
	if reflect.DeepEqual(tr.WorldAt(1).TopicPopularity(Image), baseTopics) {
		t.Error("epoch 1 topic prior did not shift")
	}
	if reflect.DeepEqual(tr.WorldAt(1).URLPopularity(Image), baseURLs) {
		t.Error("epoch 1 URL prior did not shift")
	}
	if !reflect.DeepEqual(w.TopicPopularity(Image), baseTopics) ||
		!reflect.DeepEqual(w.URLPopularity(Image), baseURLs) {
		t.Error("NewTraffic mutated the base world's priors")
	}
}

// Point is a pure function of (schedule, id): two independently constructed
// traffics replay every window bit-identically, in any access order.
func TestTrafficPointBitIdenticalReplay(t *testing.T) {
	a := newTestTraffic(t, 11)
	b := newTestTraffic(t, 11)

	ids := []int{0, 150, 250, 299, 37, 150, 0} // repeats and out-of-order
	for _, id := range ids {
		pa, pb := a.Point(id), b.Point(id)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("point %d differs across replays:\n%+v\n%+v", id, pa, pb)
		}
	}

	wa := a.Window(120, 40)
	wb := b.Window(120, 40)
	if !reflect.DeepEqual(wa, wb) {
		t.Fatal("Window(120, 40) differs across replays")
	}
	if len(wa) != 40 || wa[0].ID != 120 || wa[39].ID != 159 {
		t.Fatalf("window IDs wrong: first=%d last=%d", wa[0].ID, wa[39].ID)
	}
}

func TestTrafficSeedChangesPoints(t *testing.T) {
	a := newTestTraffic(t, 11)
	b := newTestTraffic(t, 12)
	same := 0
	for id := 0; id < 50; id++ {
		if reflect.DeepEqual(a.Point(id), b.Point(id)) {
			same++
		}
	}
	if same == 50 {
		t.Error("different schedule seeds produced identical traffic")
	}
}

// Decay corrupts observations but never labels: the label is assigned from
// the true entity before the observation channel degrades it.
func TestDecayPreservesLabels(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task := StandardTasks()[0]
	clean := DriftSchedule{Seed: 11, Epochs: []Epoch{{N: 300}}}
	dirty := DriftSchedule{Seed: 11, Epochs: []Epoch{{N: 300, Decay: 0.5}}}

	trClean, err := NewTraffic(w, task, clean)
	if err != nil {
		t.Fatal(err)
	}
	trDirty, err := NewTraffic(w, task, dirty)
	if err != nil {
		t.Fatal(err)
	}

	changed := 0
	for id := 0; id < 300; id++ {
		pc, pd := trClean.Point(id), trDirty.Point(id)
		if pc.Label != pd.Label {
			t.Fatalf("point %d: decay changed the label (%d vs %d)", id, pc.Label, pd.Label)
		}
		if !reflect.DeepEqual(pc.Entity, pd.Entity) {
			changed++
		}
	}
	if changed == 0 {
		t.Error("decay 0.5 corrupted no observed entity over 300 points")
	}
}

func TestDecayPointsOrderIndependent(t *testing.T) {
	tr := newTestTraffic(t, 11)
	w := tr.WorldAt(0)

	fresh := func() []*Point {
		pts := make([]*Point, 50)
		for i := range pts {
			// Re-render undecayed points from the clean epoch.
			pts[i] = tr.Point(i)
		}
		return pts
	}

	fwd := fresh()
	DecayPoints(fwd, w, 0.5)

	rev := fresh()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	DecayPoints(rev, w, 0.5)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}

	if !reflect.DeepEqual(fwd, rev) {
		t.Fatal("DecayPoints depends on slice order")
	}
}

func TestFreshDatasetDeterministicAndDecayed(t *testing.T) {
	tr := newTestTraffic(t, 11)
	cfg := DatasetConfig{
		Seed: 99, NumText: 300, NumUnlabeledImage: 300,
		NumHandLabelPool: 100, NumTest: 200,
	}

	a, err := tr.FreshDataset(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.FreshDataset(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.UnlabeledImage, b.UnlabeledImage) ||
		!reflect.DeepEqual(a.LabeledText, b.LabeledText) ||
		!reflect.DeepEqual(a.TestImage, b.TestImage) {
		t.Fatal("FreshDataset not deterministic for fixed (epoch, cfg)")
	}
	if a.World != tr.WorldAt(1) {
		t.Error("FreshDataset should sample from the epoch's shifted world")
	}

	// Epoch 0 has no decay; epoch 1 decays at 0.3. Same cfg seed, different
	// regimes must differ.
	c, err := tr.FreshDataset(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.UnlabeledImage, c.UnlabeledImage) {
		t.Error("epoch 1 dataset identical to epoch 0 despite shift+decay")
	}

	if _, err := tr.FreshDataset(7, cfg); err == nil {
		t.Error("out-of-range epoch accepted")
	}
}

func TestTrafficCalibratesTaskOnce(t *testing.T) {
	w := MustWorld(DefaultConfig())
	task := StandardTasks()[1]
	tr, err := NewTraffic(w, task, DriftSchedule{Seed: 5, Epochs: []Epoch{{N: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Task() != task {
		t.Error("Task accessor should return the calibrated task")
	}
	// Labeling must not panic: NewTraffic calibrated the task.
	p := tr.Point(0)
	if p.Label != task.Label(w, tr.Point(0).Entity) && p.Entity != nil {
		// Label was computed against the true entity pre-decay; with no
		// decay in this schedule the observed entity is the true one.
		t.Error("point label inconsistent with task labeling")
	}
}

// refTrafficPoint is Traffic.Point as it was: a fresh generator to sample,
// then a second one on the decay channel and a decayed copy of the entity.
func refTrafficPoint(t *Traffic, id int) *Point {
	ep := t.EpochOf(id)
	w := t.worlds[ep]
	seed := PointSeed(t.sched.Seed, id)
	e := w.SampleEntity(xrand.New(int64(seed)), Image, id)
	p := &Point{ID: id, Entity: e, Modality: Image, Seed: seed, Label: t.task.Label(w, e)}
	if decay := t.sched.Epochs[ep].Decay; decay > 0 {
		rng := xrand.New(int64(xrand.HashString(seed, "synth.decay")))
		d := *e
		d.Objects = append([]int(nil), e.Objects...)
		d.Keywords = append([]int(nil), e.Keywords...)
		if rng.Float64() < decay {
			d.Topic = rng.Intn(w.cfg.NumTopics)
		}
		if rng.Float64() < decay && len(d.Objects) > 1 {
			d.Objects = d.Objects[:(len(d.Objects)+1)/2]
		}
		if rng.Float64() < decay {
			d.URLGroup = rng.Intn(w.cfg.NumURLGroups)
		}
		if rng.Float64() < decay && len(d.Keywords) > 1 {
			d.Keywords = d.Keywords[:(len(d.Keywords)+1)/2]
		}
		p.Entity = &d
	}
	return p
}

// TestTrafficPointMatchesReference: one generator reseeded to the decay
// channel and an in-place decay render every point exactly as the two
// generators and the decayed copy did, over a clean and a decaying epoch.
func TestTrafficPointMatchesReference(t *testing.T) {
	tr, err := NewTraffic(MustWorld(DefaultConfig()), StandardTasks()[0], DriftSchedule{Seed: 11, Epochs: []Epoch{
		{N: 5000},
		{N: 5000, TopicShift: 2.0, URLShift: 1.5, Decay: 0.3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for id := range tr.Total() {
		if got, want := tr.Point(id), refTrafficPoint(tr, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d (epoch %d):\n got %+v %+v\nwant %+v %+v", id, tr.EpochOf(id), got, got.Entity, want, want.Entity)
		}
	}
}

// TestTrafficPointAllocs: a point allocates its entity, the entity's two
// lists once each (sized before they fill) and the point — four objects, and
// no generator (pooled) — and decaying it costs nothing more: no second
// generator and no copy of the entity.
func TestTrafficPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations")
	}
	w, task := MustWorld(DefaultConfig()), StandardTasks()[0]
	clean, err := NewTraffic(w, task, DriftSchedule{Seed: 11, Epochs: []Epoch{{N: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	decayed, err := NewTraffic(w, task, DriftSchedule{Seed: 11, Epochs: []Epoch{{N: 100, Decay: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	for id := range 20 {
		if c := testing.AllocsPerRun(20, func() { clean.Point(id) }); c != 4 {
			t.Errorf("clean point %d: %v allocations, want 4", id, c)
		}
		if d := testing.AllocsPerRun(20, func() { decayed.Point(id) }); d != 4 {
			t.Errorf("decayed point %d: %v allocations, want 4", id, d)
		}
	}
}
