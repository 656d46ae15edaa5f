package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// CLI bundles the standard observability command-line flags shared by the
// repo's commands: logging verbosity, solver trace output, metrics output,
// the live exposition endpoint, and CPU/heap profiles. Register the flags,
// parse, then Start a Session.
type CLI struct {
	Verbose      bool
	LogLevel     string
	TraceOut     string
	MetricsOut   string
	MetricsFlush time.Duration
	Listen       string
	ListenHold   time.Duration
	CPUProfile   string
	MemProfile   string
}

// Register declares the flags on fs (use flag.CommandLine for a command).
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.Verbose, "v", false, "verbose logging (shorthand for -log-level debug)")
	fs.StringVar(&c.LogLevel, "log-level", "", "log level: debug, info, warn, error (default: logging off)")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write per-iteration solver trace as JSON lines to this file")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write collected metrics in Prometheus text format to this file")
	fs.DurationVar(&c.MetricsFlush, "metrics-flush", 0, "also rewrite -metrics-out at this interval (default: only at exit)")
	fs.StringVar(&c.Listen, "listen", "", "serve /metrics, /metrics.json, /series and /debug/pprof on this address (e.g. localhost:6060)")
	fs.DurationVar(&c.ListenHold, "listen-hold", 0, "keep the -listen endpoint up this long after the command finishes")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// Session is the running observability state behind a CLI's flags. Zero-value
// fields mean the corresponding flag was not set; Logger and Trace are nil
// (disabled) unless requested, so the instrumented code's no-op paths apply.
type Session struct {
	// Logger is non-nil when -v or -log-level was given.
	Logger *slog.Logger
	// Registry is non-nil when -metrics-out or -listen was given.
	Registry *Registry
	// Trace is non-nil when -trace-out was given; it streams one JSON
	// object per call to the trace file.
	Trace *JSONL
	// Addr is the bound address of the -listen endpoint ("" when not
	// listening); it differs from the flag when an ephemeral port (":0")
	// was requested.
	Addr string

	cli       *CLI
	traceFile *os.File
	cpuFile   *os.File
	server    *http.Server
	flushStop chan struct{}
	flushDone chan struct{}
}

// Start opens the outputs the flags request. Call Close when the command is
// done (it writes the metrics and heap-profile files).
func (c *CLI) Start(logDst io.Writer) (*Session, error) {
	s := &Session{cli: c}
	level := c.LogLevel
	if c.Verbose && level == "" {
		level = "debug"
	}
	if level != "" {
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(level)); err != nil {
			return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
		}
		s.Logger = slog.New(slog.NewTextHandler(logDst, &slog.HandlerOptions{Level: lv}))
	}
	if c.MetricsOut != "" || c.Listen != "" {
		s.Registry = NewRegistry()
	}
	if c.TraceOut != "" {
		f, err := os.Create(c.TraceOut)
		if err != nil {
			return nil, err
		}
		s.traceFile = f
		s.Trace = NewJSONL(f)
	}
	if c.Listen != "" {
		srv, addr, err := Serve(c.Listen, s.Registry)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("-listen %s: %w", c.Listen, err)
		}
		s.server, s.Addr = srv, addr
		if s.Logger != nil {
			s.Logger.Info("serving metrics", "addr", s.Addr)
		}
	}
	if c.MetricsOut != "" {
		if c.MetricsFlush > 0 {
			stop, done := make(chan struct{}), make(chan struct{})
			s.flushStop, s.flushDone = stop, done
			go func() {
				defer close(done)
				t := time.NewTicker(c.MetricsFlush)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						s.flushMetrics()
					case <-stop:
						return
					}
				}
			}()
		}
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			s.Close()
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			s.Close()
			return nil, err
		}
		s.cpuFile = f
	}
	return s, nil
}

// flushMetrics atomically rewrites the -metrics-out file: the exposition is
// written to a sibling temp file and renamed into place, so a reader (or a
// kill arriving mid-write) never sees a torn file. Safe to call concurrently
// from the ticker and Close — the registry serializes reads and rename is
// atomic.
func (s *Session) flushMetrics() error {
	out := s.cli.MetricsOut
	if s.Registry == nil || out == "" {
		return nil
	}
	tmp := out + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = s.Registry.WriteProm(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, out)
}

// Close flushes and closes every output the session opened: it stops the CPU
// profile, writes the heap profile and the metrics file, holds the -listen
// endpoint open for -listen-hold, and closes the trace stream. The first
// error encountered is returned.
func (s *Session) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if s.flushStop != nil {
		close(s.flushStop)
		<-s.flushDone
		s.flushStop = nil
	}
	if s.cli.MemProfile != "" {
		f, err := os.Create(s.cli.MemProfile)
		if err != nil {
			keep(err)
		} else {
			runtime.GC()
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
		s.cli.MemProfile = ""
	}
	// flushMetrics is idempotent, so a double Close just rewrites the same
	// file.
	keep(s.flushMetrics())
	if s.server != nil {
		if s.cli.ListenHold > 0 {
			time.Sleep(s.cli.ListenHold)
		}
		keep(Shutdown(s.server, 2*time.Second))
		s.server = nil
	}
	if s.traceFile != nil {
		keep(s.Trace.Err())
		keep(s.traceFile.Close())
		s.traceFile = nil
	}
	return first
}
