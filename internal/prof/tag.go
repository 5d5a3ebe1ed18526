package prof

import "repro/internal/sim"

// TagScheduler wraps the kernel so every schedule call made through the
// wrapper is provenance-tagged with tag — the campaign layer hands each
// site's dataplane such a wrapper, attributing the site's events to it
// in the causal DAG. The wrapper sets the tag around each delegated
// call and restores the untagged state, so code scheduling on the bare
// kernel never inherits a tag. With tag 0, k is returned unchanged.
func TagScheduler(k *sim.Kernel, tag int32) sim.Scheduler {
	if tag == 0 {
		return k
	}
	return &taggedScheduler{k: k, tag: tag}
}

type taggedScheduler struct {
	k   *sim.Kernel
	tag int32
}

func (t *taggedScheduler) Now() sim.Time { return t.k.Now() }

func (t *taggedScheduler) At(at sim.Time, fn func()) sim.Handle {
	t.k.SetProvTag(t.tag)
	h := t.k.At(at, fn)
	t.k.SetProvTag(0)
	return h
}

func (t *taggedScheduler) AtArg(at sim.Time, fn func(any), arg any) sim.Handle {
	t.k.SetProvTag(t.tag)
	h := t.k.AtArg(at, fn, arg)
	t.k.SetProvTag(0)
	return h
}

func (t *taggedScheduler) After(d sim.Duration, fn func()) sim.Handle {
	t.k.SetProvTag(t.tag)
	h := t.k.After(d, fn)
	t.k.SetProvTag(0)
	return h
}

func (t *taggedScheduler) AfterArg(d sim.Duration, fn func(any), arg any) sim.Handle {
	t.k.SetProvTag(t.tag)
	h := t.k.AfterArg(d, fn, arg)
	t.k.SetProvTag(0)
	return h
}

// Every builds the ticker on the wrapper itself, so every firing's
// reschedule carries the tag too.
func (t *taggedScheduler) Every(d sim.Duration, fn func(sim.Time)) *sim.Ticker {
	return sim.NewTicker(t, d, fn)
}
