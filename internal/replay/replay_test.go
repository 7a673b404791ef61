package replay_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"genesys/internal/fs"
	"genesys/internal/netstack"
	"genesys/internal/platform"
	"genesys/internal/replay"
	"genesys/internal/sim"
	"genesys/internal/syscalls"
)

func TestTraceWriteLoadRoundTrip(t *testing.T) {
	tr := &replay.Trace{
		Version: replay.TraceVersion, Case: "hand", Seed: 7,
		Env: []replay.EnvFD{
			{FD: 3, Kind: "file", Path: "/data/x", Size: 4096, Pos: 128, Flags: fs.O_RDWR},
			{FD: 4, Kind: "dgram", Port: 11211},
			{FD: 5, Kind: "stream-listener", Port: 12000, Backlog: 16},
		},
		Entries: []replay.Entry{
			{Trace: 1, NR: syscalls.SYS_pwrite64, Name: "pwrite64", Slot: 2, Wave: 0,
				Gen: 3, At: 1000, Args: [6]uint64{3, 64, 0}, BufLen: 64, Buf: "aGVsbG8="},
			{Trace: 2, NR: syscalls.SYS_getrusage, Name: "getrusage", Slot: 9, Gen: 1, At: 2000},
		},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip:\nwant %+v\ngot  %+v", tr, got)
	}
}

func TestRecreateEnv(t *testing.T) {
	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	pr := m.NewProcess("replay")
	env := []replay.EnvFD{
		{FD: 0, Kind: "console", Path: "/dev/console"},
		{FD: 3, Kind: "file", Path: "/data/x", Size: 4096, Pos: 256, Flags: fs.O_RDWR},
		{FD: 4, Kind: "dgram", Port: 11211, Path: "socket:[udp]"},
		{FD: 5, Kind: "stream-listener", Port: 12000, Backlog: 16, Path: "socket:[tcp]"},
	}
	if err := replay.RecreateEnv(m, pr, env); err != nil {
		t.Fatal(err)
	}
	f, err := pr.FDs.Get(3)
	if err != nil {
		t.Fatalf("fd 3: %v", err)
	}
	if f.Node == nil || f.Node.Size() != 4096 {
		t.Errorf("fd 3: want 4096-byte file, got %+v", f)
	}
	if f.Pos() != 256 {
		t.Errorf("fd 3 pos = %d, want 256", f.Pos())
	}
	for fd, wantPort := range map[int]int{4: 11211, 5: 12000} {
		f, err := pr.FDs.Get(fd)
		if err != nil {
			t.Fatalf("fd %d: %v", fd, err)
		}
		sk, ok := f.Special.(*netstack.Socket)
		if !ok {
			t.Fatalf("fd %d: not a socket", fd)
		}
		if sk.Port() != wantPort {
			t.Errorf("fd %d bound to %d, want %d", fd, sk.Port(), wantPort)
		}
	}
	sk := func(fd int) *netstack.Socket {
		f, _ := pr.FDs.Get(fd)
		return f.Special.(*netstack.Socket)
	}
	if !sk(5).Listening() || sk(5).BacklogMax() != 16 {
		t.Errorf("fd 5: listener state not recreated")
	}
	// Round trip: the recreated table manifests back to the same env
	// (skipping the three console fds NewProcess pre-installs).
	got := replay.CaptureEnv(pr)
	if len(got) < 3 {
		t.Fatalf("captured env too short: %+v", got)
	}
	if !reflect.DeepEqual(got[3:], env[1:]) {
		t.Errorf("capture of recreated env:\nwant %+v\ngot  %+v", env[1:], got[3:])
	}
}

// TestReplayDefersBusySlot replays a hand-built trace with two calls
// landing on the same slot at the same instant: the second must defer
// until the first completes, and both must complete.
func TestReplayDefersBusySlot(t *testing.T) {
	at := int64(10 * sim.Microsecond)
	tr := &replay.Trace{
		Version: replay.TraceVersion, Case: "hand", Seed: 1,
		Env: []replay.EnvFD{{FD: 3, Kind: "file", Path: "/data/x", Size: 4096, Flags: fs.O_RDWR}},
		Entries: []replay.Entry{
			{Trace: 1, NR: syscalls.SYS_pwrite64, Slot: 0, Gen: 1, At: at,
				Args: [6]uint64{3, 64, 0}, BufLen: 64},
			{Trace: 2, NR: syscalls.SYS_pwrite64, Slot: 0, Gen: 1, At: at,
				Args: [6]uint64{3, 64, 64}, BufLen: 64},
			{Trace: 3, NR: syscalls.SYS_pread64, Slot: 1, Gen: 1, At: at + 1000,
				Args: [6]uint64{3, 64, 0}, BufLen: 64},
		},
	}
	rep, err := replay.Run(tr, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Matches {
		t.Fatalf("counts diverge:\n%s", rep.Render())
	}
	if rep.Completed != 3 {
		t.Errorf("completed %d, want 3", rep.Completed)
	}
	if rep.Deferred != 1 {
		t.Errorf("deferred %d, want 1 (same-slot same-instant collision)", rep.Deferred)
	}
	if rep.Injected != 3 {
		t.Errorf("injected %d, want 3", rep.Injected)
	}
}

// TestReplayPreservesTraceIDs checks injected calls carry their
// recorded trace IDs through the pipeline (the report's counts are
// keyed off completions of those IDs' syscall numbers).
func TestReplayPreservesTraceIDs(t *testing.T) {
	tr := &replay.Trace{
		Version: replay.TraceVersion, Case: "hand", Seed: 1,
		Entries: []replay.Entry{
			{Trace: 42, NR: syscalls.SYS_getrusage, Slot: 0, Gen: 1, At: int64(sim.Microsecond)},
		},
	}
	rep, err := replay.Run(tr, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Matches || rep.Completed != 1 {
		t.Fatalf("single-call replay failed:\n%s", rep.Render())
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	tr := &replay.Trace{Version: replay.TraceVersion + 1, Case: "x"}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Load(path); err == nil {
		t.Error("future-version trace loaded clean")
	}
}

// TestReplayRejectsMalformedTrace: a trace whose entry instant is
// negative (the engine would panic scheduling into the past), whose env
// file size or position is negative, or whose position, file size or
// buffer length exceeds fs.MaxFileSize fails to load with an error;
// RecreateEnv given a negative file size returns an error instead of
// panicking.
func TestReplayRejectsMalformedTrace(t *testing.T) {
	file := replay.EnvFD{FD: 3, Kind: "file", Path: "/data/x", Size: 4096, Flags: fs.O_RDWR}
	call := replay.Entry{Trace: 1, NR: syscalls.SYS_getrusage, Slot: 0, Gen: 1, At: 1000}
	for name, mutate := range map[string]func(*replay.Trace){
		"negative at_ns":   func(tr *replay.Trace) { tr.Entries[0].At = -1 },
		"negative buf_len": func(tr *replay.Trace) { tr.Entries[0].BufLen = -1 },
		"huge buf_len":     func(tr *replay.Trace) { tr.Entries[0].BufLen = int(fs.MaxFileSize) + 1 },
		"negative size":    func(tr *replay.Trace) { tr.Env[0].Size = -1 },
		"huge size":        func(tr *replay.Trace) { tr.Env[0].Size = fs.MaxFileSize + 1 },
		"negative pos":     func(tr *replay.Trace) { tr.Env[0].Pos = -1 },
		"huge pos":         func(tr *replay.Trace) { tr.Env[0].Pos = fs.MaxFileSize + 1 },
		"buf_len over bound": func(tr *replay.Trace) {
			tr.Entries[0].BufLen = replay.MaxBufBytes + 1
		},
		"buf_len sum over bound": func(tr *replay.Trace) {
			tr.Entries[0].BufLen = replay.MaxBufBytes/2 + 1
			tr.Entries = append(tr.Entries, tr.Entries[0])
			tr.Entries[1].Trace = 2
		},
	} {
		tr := &replay.Trace{Version: replay.TraceVersion, Case: "hand", Seed: 1,
			Env: []replay.EnvFD{file}, Entries: []replay.Entry{call}}
		mutate(tr)
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.Write(path); err != nil {
			t.Fatal(err)
		}
		if _, err := replay.Load(path); err == nil {
			t.Errorf("%s: trace loaded clean", name)
		}
	}

	m := platform.New(platform.DefaultConfig())
	defer m.Shutdown()
	bad := file
	bad.Size = -1
	if err := replay.RecreateEnv(m, m.NewProcess("replay"), []replay.EnvFD{bad}); err == nil {
		t.Error("RecreateEnv created a file of negative size")
	}
}
