// Launching real worker subprocesses: os/exec plumbing, pipe lifecycle,
// and SIGKILL-aware exit classification.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
)

// Worker is one running shard worker as the supervisor sees it.
type Worker interface {
	// Events streams the worker's parsed protocol messages; the channel
	// closes when the worker's stdout does.
	Events() <-chan Msg
	// Wait blocks until the process exits and reports its status (nil =
	// exit 0). Safe to call from multiple goroutines.
	Wait() error
	// Kill terminates the worker immediately (SIGKILL — a stalled worker
	// by definition ignores polite signals).
	Kill()
	// SigKilled reports, after Wait has returned, whether the worker died
	// of SIGKILL — the OOM killer's signature (also the supervisor's own
	// stall kill, which the supervisor distinguishes by having sent it).
	SigKilled() bool
}

// Launcher starts a worker subprocess for a shard lease. The supervisor
// calls it for every launch — first attempts, restarts, bisected
// children — with the lease's Attempt already advanced.
type Launcher interface {
	Launch(ctx context.Context, sh Shard) (Worker, error)
}

// ExecLauncher launches real subprocesses: Binary with Args(sh), stdout
// as the protocol pipe, stderr passed through, and stdin held open by the
// supervisor so workers can detect supervisor death as EOF (see
// WatchStdin).
type ExecLauncher struct {
	// Binary is the worker executable (normally os.Executable() — the
	// supervisor re-executing itself in worker mode).
	Binary string
	// Args builds the worker's argument list for a lease; it must encode
	// the shard range, checkpoint path and attempt.
	Args func(sh Shard) []string
	// Stderr receives the worker's stderr (nil = the supervisor's own).
	Stderr io.Writer
	// BadLine, when non-nil, observes undecodable stdout lines (worker
	// debug prints, protocol version skew). They are skipped either way.
	BadLine func(error)
}

// Launch starts one worker process for the lease.
func (l *ExecLauncher) Launch(ctx context.Context, sh Shard) (Worker, error) {
	cmd := exec.Command(l.Binary, l.Args(sh)...)
	cmd.Stderr = l.Stderr
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("supervise: worker stdin pipe: %w", err)
	}
	// A plain os.Pipe rather than cmd.StdoutPipe: Wait closes a StdoutPipe
	// as soon as the process exits, which can drop the final done line of
	// a worker that exits right after writing it (the exited goroutine
	// below calls Wait at once). This read end is closed by the reader
	// alone, after EOF.
	stdout, childOut, err := os.Pipe()
	if err != nil {
		stdin.Close()
		return nil, fmt.Errorf("supervise: worker stdout pipe: %w", err)
	}
	cmd.Stdout = childOut
	err = cmd.Start()
	// The child holds its own copy of the write end; ours must go, or the
	// reader would never see EOF.
	childOut.Close()
	if err != nil {
		stdin.Close()
		stdout.Close()
		return nil, fmt.Errorf("supervise: launch worker for shard %s: %w", sh.Range(), err)
	}
	w := &execWorker{cmd: cmd, stdin: stdin, events: readMessages(stdout, l.BadLine)}
	// The context doubles as the supervisor's shutdown switch: cancel and
	// every live worker is killed, so no worker outlives its supervisor's
	// orderly exit (disorderly exits are covered by the stdin watchdog).
	go func() {
		select {
		case <-ctx.Done():
			w.Kill()
		case <-w.exited():
		}
	}()
	return w, nil
}

type execWorker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	events <-chan Msg

	waitOnce sync.Once
	waitErr  error
	waitDone chan struct{} // lazily created by exited()

	mu   sync.Mutex
	done bool
}

func (w *execWorker) Events() <-chan Msg { return w.events }

func (w *execWorker) Wait() error {
	w.waitOnce.Do(func() {
		w.waitErr = w.cmd.Wait()
		// Only now is it safe to drop our end of the worker's stdin: the
		// pipe is the orphan watchdog's supervisor-liveness probe, so it
		// must stay open for the worker's entire life.
		w.stdin.Close()
		w.mu.Lock()
		w.done = true
		w.mu.Unlock()
	})
	return w.waitErr
}

// exited returns a channel closed once Wait has been observed. Used by
// the context-kill goroutine so it does not hold a kill handle forever.
func (w *execWorker) exited() <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		w.Wait() //nolint:errcheck // only the exit event matters here
		close(ch)
	}()
	return ch
}

func (w *execWorker) Kill() {
	w.mu.Lock()
	done := w.done
	w.mu.Unlock()
	if !done && w.cmd.Process != nil {
		w.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
	}
}

func (w *execWorker) SigKilled() bool {
	var ee *exec.ExitError
	if !errors.As(w.waitErr, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}
