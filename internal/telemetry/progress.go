package telemetry

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Progress is the live progress renderer, a Feed subscriber: it
// repaints one status line in place (carriage return, no scroll) on a
// TTY, or prints plain lines on a pipe, at most once per Every of feed
// time. It renders units done ("progress"), result-cache hits and
// misses ("simulation"), the current experiment, and a simulation's
// clock-free progress ("cycle", from obs.ProgressProbe), whose sim-IPC
// and host rates it derives from the feed's timestamps. The final
// cycle event prints a one-line run summary. Attach with
// feed.Subscribe(p.Event) and call Finish when the run ends.
type Progress struct {
	// Every is the minimum feed time between two lines (default
	// 100ms): a scale-3 suite emits thousands of events, and a repaint
	// per event is pure flicker.
	Every time.Duration

	w   io.Writer
	tty bool

	mu        sync.Mutex
	done      uint64
	total     float64
	current   string
	hits      uint64
	misses    uint64
	sim       bool  // a cycle event has arrived
	cyc, base Event // the latest cycle event, and the one rates run from
	lastLen   int
	lastDraw  float64 // feed time of the last line
	finished  bool
}

// NewProgress builds a renderer writing to w; tty selects in-place
// repainting (pass IsTerminal(w)).
func NewProgress(w io.Writer, tty bool) *Progress {
	return &Progress{w: w, tty: tty, Every: 100 * time.Millisecond}
}

// IsTerminal reports whether w is an *os.File on a character device —
// the stdlib-only TTY check (no termios needed just to pick a render
// style).
func IsTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	st, err := f.Stat()
	if err != nil {
		return false
	}
	return st.Mode()&os.ModeCharDevice != 0
}

// Event consumes one feed event; pass it to Feed.Subscribe.
func (p *Progress) Event(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished {
		return
	}
	switch ev.Kind {
	case "progress":
		p.done = ev.N
		if ev.V > 0 {
			p.total = ev.V
		}
		p.current = ev.Msg
	case "simulation":
		switch ev.Msg {
		case "hit":
			p.hits++
		case "miss":
			p.misses++
		}
	case "experiment":
		if ev.Msg == "start" {
			p.current = ev.Name
		}
	case "cycle":
		if ev.Msg == "done" {
			p.endLine()
			ipc := 0.0
			if ev.V > 0 {
				ipc = float64(ev.N) / ev.V
			}
			fmt.Fprintf(p.w, "done: retired %d insts in %d cycles (IPC %.3f), %.2fs wall\n", ev.N, uint64(ev.V), ipc, ev.T)
			return
		}
		p.cyc = ev
		if !p.sim {
			p.sim, p.base = true, ev // no rate until a second sample
			return
		}
	default:
		return
	}
	p.draw(ev.T)
}

func (p *Progress) draw(t float64) {
	if t-p.lastDraw < p.Every.Seconds() {
		return
	}
	p.lastDraw = t

	var b strings.Builder
	fmt.Fprintf(&b, "[%6.1fs]", t)
	if p.total > 0 {
		fmt.Fprintf(&b, " %d/%d", p.done, uint64(p.total))
	} else if p.done > 0 {
		fmt.Fprintf(&b, " %d done", p.done)
	}
	if dt := p.cyc.T - p.base.T; p.sim && dt > 0 {
		dc, dr := p.cyc.V-p.base.V, float64(p.cyc.N-p.base.N)
		ipc := 0.0
		if dc > 0 {
			ipc = dr / dc
		}
		fmt.Fprintf(&b, " cycle %d, retired %d, sim-IPC %.3f, %.1f Mcycles/s, %.2f MIPS",
			uint64(p.cyc.V), p.cyc.N, ipc, dc/dt/1e6, dr/dt/1e6)
		p.base = p.cyc
	}
	if p.hits+p.misses > 0 {
		fmt.Fprintf(&b, " · cache %d hit %d miss", p.hits, p.misses)
	}
	if p.current != "" {
		fmt.Fprintf(&b, " · %s", p.current)
	}
	line := b.String()
	if p.tty {
		pad := ""
		if n := p.lastLen - len(line); n > 0 {
			pad = strings.Repeat(" ", n)
		}
		fmt.Fprintf(p.w, "\r%s%s", line, pad)
		p.lastLen = len(line)
	} else {
		fmt.Fprintln(p.w, line)
	}
}

// endLine terminates a repainted TTY line so the next output starts on
// a fresh one.
func (p *Progress) endLine() {
	if p.tty && p.lastLen > 0 {
		fmt.Fprintln(p.w)
		p.lastLen = 0
	}
}

// Finish terminates the status line and stops further rendering. It is
// a no-op on a nil *Progress.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finished {
		p.finished = true
		p.endLine()
	}
}
