package synth

import (
	"fmt"
	"math/rand"
	"sort"
)

// Task is one binary classification task over entities (e.g. "sensitive
// content", "illegal product"). A task scores an entity by weighting its
// latent risk attributes, then labels it positive when the score exceeds a
// threshold calibrated to the task's target positive rate.
//
// The weights determine which organizational resources are informative for
// the task, and EpsWeight determines how much label variance no feature can
// explain — the paper's "relative difficulty in modeling each task with our
// manually curated features" (§6.4).
type Task struct {
	Name string
	// TargetPositiveRate is the desired positive fraction under the old
	// (text) modality prior; Table 1 reports these per task.
	TargetPositiveRate float64

	TopicWeight   float64
	ObjectWeight  float64
	UserWeight    float64
	URLWeight     float64
	KeywordWeight float64
	// EpsWeight scales idiosyncratic, unobservable risk.
	EpsWeight float64

	threshold  float64
	calibrated bool
}

// Score returns the task's latent risk score for an entity: a noisy-OR over
// the weighted attribute risks plus idiosyncratic noise. The noisy-OR form
// gives violation tasks their characteristic structure — a single strong
// signal (an illegal object, a notorious URL) suffices to make an entity
// positive ("easy modes" that labeling functions capture, §4.4), while
// borderline positives arise from combinations of moderate signals (which
// label propagation recovers).
func (t *Task) Score(w *World, e *Entity) float64 {
	benign := 1.0
	for _, c := range [...]float64{
		t.TopicWeight * w.TopicRisk(e.Topic),
		t.ObjectWeight * w.maxObjectRisk(e),
		t.UserWeight * w.UserBadness(e.User),
		t.URLWeight * w.URLRisk(e.URLGroup),
		t.KeywordWeight * w.meanKeywordRisk(e),
	} {
		benign *= 1 - clamp01(c)
	}
	return (1 - benign) + t.EpsWeight*e.Eps
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Calibrate fixes the decision threshold so that the positive rate over the
// old-modality entity prior approximates TargetPositiveRate, using n Monte
// Carlo samples. It must be called once before Label.
func (t *Task) Calibrate(w *World, n int, seed int64) error {
	if t.TargetPositiveRate <= 0 || t.TargetPositiveRate >= 1 {
		return fmt.Errorf("synth: task %s has invalid positive rate %v", t.Name, t.TargetPositiveRate)
	}
	if n < 100 {
		return fmt.Errorf("synth: calibration needs >= 100 samples, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = t.Score(w, w.SampleEntity(rng, Text, i))
	}
	sort.Float64s(scores)
	idx := int(float64(n) * (1 - t.TargetPositiveRate))
	if idx >= n {
		idx = n - 1
	}
	t.threshold = scores[idx]
	t.calibrated = true
	return nil
}

// Label returns +1 if the entity is a task positive and -1 otherwise.
// It panics if the task has not been calibrated — a programming error.
func (t *Task) Label(w *World, e *Entity) int8 {
	if !t.calibrated {
		panic(fmt.Sprintf("synth: task %s used before Calibrate", t.Name))
	}
	if t.Score(w, e) > t.threshold {
		return 1
	}
	return -1
}

// StandardTasks returns the five classification tasks CT1–CT5 with the
// positive rates of paper Table 1 and difficulty profiles chosen to
// reproduce the paper's qualitative spread (Table 2):
//
//   - CT1: moderately feature-expressible topic task.
//   - CT2: strongly feature-expressible keyword/topic task (mined LFs alone
//     suffice; Table 3 shows no labelprop lift).
//   - CT3: weakly feature-expressible task (large idiosyncratic risk) — the
//     text model underperforms the embedding baseline and the cross-over
//     point is small.
//   - CT4: heavily imbalanced object task (0.9% positive) — label
//     propagation delivers its largest recall lift here.
//   - CT5: strongly feature-expressible user/URL task — the cross-modal
//     pipeline is hardest to beat with hand labels (largest cross-over).
func StandardTasks() []*Task {
	return []*Task{
		{
			Name: "CT1", TargetPositiveRate: 0.041,
			TopicWeight: 1.0, ObjectWeight: 0.95, UserWeight: 0.5,
			URLWeight: 0.3, KeywordWeight: 0.3, EpsWeight: 0.18,
		},
		{
			Name: "CT2", TargetPositiveRate: 0.093,
			TopicWeight: 1.1, ObjectWeight: 0.3, UserWeight: 0.3,
			URLWeight: 0.4, KeywordWeight: 1.0, EpsWeight: 0.10,
		},
		{
			Name: "CT3", TargetPositiveRate: 0.032,
			TopicWeight: 0.5, ObjectWeight: 0.3, UserWeight: 0.2,
			URLWeight: 0.2, KeywordWeight: 0.2, EpsWeight: 0.55,
		},
		{
			Name: "CT4", TargetPositiveRate: 0.009,
			TopicWeight: 0.6, ObjectWeight: 1.1, UserWeight: 0.4,
			URLWeight: 0.3, KeywordWeight: 0.3, EpsWeight: 0.22,
		},
		{
			Name: "CT5", TargetPositiveRate: 0.069,
			TopicWeight: 0.8, ObjectWeight: 0.7, UserWeight: 0.9,
			URLWeight: 0.7, KeywordWeight: 0.4, EpsWeight: 0.08,
		},
	}
}

// TaskByName returns the standard task with the given name, or an error.
func TaskByName(name string) (*Task, error) {
	for _, t := range StandardTasks() {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("synth: unknown task %q", name)
}
