package tcpnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/simnet"
	"spardl/internal/sparsecoll"
)

// The cross-backend equivalence proof for tcpnet forks real worker
// processes: TestMain diverts re-executions of this test binary into
// childMain before the test framework runs, so every worker is a separate
// OS process talking to its peers over real loopback TCP sockets — the
// configuration the package exists for. The parent computes the simnet
// reference in-process and compares bit-for-bit.

const (
	envChildMode = "SPARDL_TCPNET_CHILD_MODE"
	envChildOut  = "SPARDL_TCPNET_OUT"
)

func TestMain(m *testing.M) {
	switch os.Getenv(envChildMode) {
	case "":
		os.Exit(m.Run())
	case "reduce":
		childReduce()
	case "fault":
		childFault()
	case "elastic":
		// Short rejoin windows keep the SIGKILL test quick; the probe
		// still exceeds loopback poison skew by orders of magnitude.
		rejoinProbe, rejoinSettle = time.Second, 400*time.Millisecond
		childElastic()
	default:
		fmt.Fprintf(os.Stderr, "unknown child mode %q\n", os.Getenv(envChildMode))
		os.Exit(64)
	}
}

// Workload parameters shared verbatim by parent (simnet reference) and
// children (tcpnet run).
const (
	eqN     = 2000
	eqK     = 60
	eqIters = 3
	// The forced-flip workload: per-block fan-in density ≈ P·k/n ≥ 2, so
	// the reduce-scatter merges densify mid-collective under the default
	// adaptive policy.
	eqFlipN = 1024
	eqFlipK = 512
)

type eqCombo struct {
	name    string
	factory sparsecoll.Factory
	n, k    int
}

// eqCombos is the reducer Factory matrix for a P-worker cluster: every
// SparDL configuration and every baseline, with gTopk joining on
// power-of-two P. Each runs once: the accounting mode (sparsecoll.Tuned)
// is inert where bytes are real, which livenet's TestWireModeInertOnBytes
// pins for the runtime both backends share. The "-flip" entries force a
// mid-collective sparse→dense switch.
func eqCombos(p int) []eqCombo {
	spardl := core.NewFactory
	combos := []eqCombo{
		{"spardl", spardl(core.Options{}), eqN, eqK},
		{"spardl-eager", spardl(core.Options{Eager: true}), eqN, eqK},
		{"topka", sparsecoll.NewTopkA, eqN, eqK},
		{"topkdsa", sparsecoll.NewTopkDSA, eqN, eqK},
		{"oktopk", sparsecoll.NewOkTopk, eqN, eqK},
		{"dense", sparsecoll.NewDense, eqN, eqK},
		{"spardl-flip", spardl(core.Options{}), eqFlipN, eqFlipK},
		{"topkdsa-flip", sparsecoll.NewTopkDSA, eqFlipN, eqFlipK},
	}
	for _, d := range []int{2, 3} {
		if p%d == 0 && p > d {
			combos = append(combos, eqCombo{fmt.Sprintf("spardl-d%d", d), spardl(core.Options{Teams: d}), eqN, eqK})
		}
	}
	if sparsecoll.GTopkValid(p) == nil {
		combos = append(combos, eqCombo{"gtopk", sparsecoll.NewGTopk, eqN, eqK})
	}
	return combos
}

// eqGrad builds the deterministic per-worker gradient for one combo and
// iteration: dense enough to exercise every encoding, with exact zero runs
// so the bitmap/delta formats both win sometimes, and combo-dependent so
// no two combos share residual trajectories.
func eqGrad(comboIdx, rank, iter, n int) []float32 {
	rng := rand.New(rand.NewSource(int64(100000*comboIdx + 1000*iter + rank)))
	g := make([]float32, n)
	for i := range g {
		if rng.Intn(4) == 0 {
			continue
		}
		g[i] = float32(rng.NormFloat64())
	}
	return g
}

// runComboOn executes one combo's iterations for one rank on any endpoint
// and returns that rank's per-iteration outputs.
func runComboOn(ep comm.Endpoint, c eqCombo, comboIdx, p int) [][]float32 {
	r := c.factory(p, ep.Rank(), c.n, c.k)
	outs := make([][]float32, eqIters)
	for it := 0; it < eqIters; it++ {
		outs[it] = make([]float32, c.n)
		r.ReduceInto(ep, eqGrad(comboIdx, ep.Rank(), it, c.n), outs[it])
		ep.SyncClock()
	}
	return outs
}

// childReduce is the forked worker: join the mesh, run the full combo
// matrix, stream this rank's outputs (as raw float32 bits) to the output
// file, and exit 0. Any panic — including a poisoned fabric — exits 1.
func childReduce() {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "tcpnet child: %v\n", r)
			os.Exit(1)
		}
	}()
	cfg, ok, err := FromEnv()
	if !ok || err != nil {
		panic(fmt.Sprintf("bad child env (ok=%v): %v", ok, err))
	}
	cfg.Timeout = 60 * time.Second
	ep, err := Start(cfg)
	if err != nil {
		panic(err)
	}
	defer ep.Close()

	out, err := os.Create(os.Getenv(envChildOut))
	if err != nil {
		panic(err)
	}
	defer out.Close()
	var buf []byte
	for ci, c := range eqCombos(cfg.P) {
		for _, vec := range runComboOn(ep, c, ci, cfg.P) {
			buf = buf[:0]
			for _, v := range vec {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
			if _, err := out.Write(buf); err != nil {
				panic(err)
			}
		}
	}
	if _, err := out.WriteString("DONE"); err != nil {
		panic(err)
	}
}

// spawnWorkers forks one child per rank (re-executing this test binary in
// the given mode) and returns the commands plus each rank's output path.
func spawnWorkers(t *testing.T, mode string, p int) ([]*exec.Cmd, []string) {
	t.Helper()
	addr, err := ReserveLoopbackAddr()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmds := make([]*exec.Cmd, p)
	outs := make([]string, p)
	for rank := 0; rank < p; rank++ {
		outs[rank] = filepath.Join(dir, fmt.Sprintf("rank%d.bin", rank))
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), envChildMode+"="+mode, envChildOut+"="+outs[rank])
		cmd.Env = append(cmd.Env, ChildEnv(addr, p, rank)...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		cmds[rank] = cmd
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning rank %d: %v", rank, err)
		}
	}
	return cmds, outs
}

// waitAll waits for every child with a deadline; a hung cluster is a test
// failure (the fault-path contract is "error, not hang"), not a timeout of
// the whole test run.
func waitAll(t *testing.T, cmds []*exec.Cmd, deadline time.Duration) []error {
	t.Helper()
	type res struct {
		rank int
		err  error
	}
	ch := make(chan res, len(cmds))
	for rank, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) { ch <- res{rank, cmd.Wait()} }(rank, cmd)
	}
	errs := make([]error, len(cmds))
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for range cmds {
		select {
		case r := <-ch:
			errs[r.rank] = r.err
		case <-timer.C:
			for _, cmd := range cmds {
				if cmd.Process != nil {
					cmd.Process.Kill()
				}
			}
			t.Fatalf("worker processes hung past %v", deadline)
		}
	}
	return errs
}

// TestProcessEquivalence is the package's headline proof: every reducer
// Factory, run by P separate OS processes over real loopback
// TCP sockets, is bit-identical to the α-β simulator — and the replicas
// agree with each other, the property S-SGD relies on.
func TestProcessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	for _, p := range []int{6, 4} { // 4 adds gTopk; 6 adds d=2/d=3 teams
		p := p
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			combos := eqCombos(p)

			// Reference: the same combo matrix on the simulator, in-process.
			sim := make([][][][]float32, len(combos)) // combo → rank → iter → vec
			for ci := range combos {
				sim[ci] = make([][][]float32, p)
			}
			simnet.Backend(simnet.Ethernet).Run(p, func(rank int, ep comm.Endpoint) {
				for ci, c := range combos {
					sim[ci][rank] = runComboOn(ep, c, ci, p)
				}
			})

			cmds, outs := spawnWorkers(t, "reduce", p)
			errs := waitAll(t, cmds, 3*time.Minute)
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("worker process %d failed: %v\nstderr:\n%s", rank, err, cmds[rank].Stderr)
				}
			}

			for rank := 0; rank < p; rank++ {
				data, err := os.ReadFile(outs[rank])
				if err != nil {
					t.Fatal(err)
				}
				want := 4 // trailing "DONE"
				for _, c := range combos {
					want += eqIters * c.n * 4
				}
				if len(data) != want || string(data[len(data)-4:]) != "DONE" {
					t.Fatalf("rank %d output truncated: %d bytes, want %d", rank, len(data), want)
				}
				off := 0
				for ci, c := range combos {
					for it := 0; it < eqIters; it++ {
						ref := sim[ci][rank][it]
						for i := 0; i < c.n; i++ {
							got := binary.LittleEndian.Uint32(data[off:])
							off += 4
							if got != math.Float32bits(ref[i]) {
								t.Fatalf("combo %s iter %d rank %d elem %d: tcpnet %08x != simnet %08x",
									c.name, it, rank, i, got, math.Float32bits(ref[i]))
							}
						}
					}
				}
			}
		})
	}
}

// childFault joins a 3-worker mesh; rank 1 then dies without ceremony
// while ranks 0 and 2 start a Reduce that needs it. The survivors must
// surface a clean poisoned-fabric error.
func childFault() {
	cfg, ok, err := FromEnv()
	if !ok || err != nil {
		fmt.Fprintf(os.Stderr, "bad child env: %v\n", err)
		os.Exit(64)
	}
	cfg.Timeout = 60 * time.Second
	ep, err := Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "start: %v\n", err)
		os.Exit(64)
	}
	if cfg.Rank == 1 {
		ep.SyncClock()
		os.Exit(3) // die mid-schedule: no Close, sockets torn down by the kernel
	}
	// The dead peer's poison may surface at the barrier (its exit can beat
	// the kernel's delivery of its barrier tokens — eager sends are lost on
	// crash, exactly like a real network) or inside the Reduce;
	// either way the survivor must get a clean panic, never a hang.
	defer func() {
		r := recover()
		if r == nil {
			fmt.Fprintln(os.Stderr, "survivor completed a Reduce that required a dead peer")
			os.Exit(64)
		}
		fmt.Fprintf(os.Stderr, "poisoned: %v\n", r)
		os.Exit(1) // expected: clean poisoned-fabric panic
	}()
	ep.SyncClock()
	r := core.NewFactory(core.Options{})(cfg.P, cfg.Rank, eqN, eqK)
	r.ReduceInto(ep, eqGrad(0, cfg.Rank, 0, eqN), make([]float32, eqN))
}

// TestFaultPoisonsSurvivors kills a worker process mid-Reduce and asserts
// the surviving processes fail fast with a clean error — a poisoned
// fabric, not a hang.
func TestFaultPoisonsSurvivors(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	cmds, _ := spawnWorkers(t, "fault", 3)
	errs := waitAll(t, cmds, time.Minute)

	if code := exitCode(errs[1]); code != 3 {
		t.Fatalf("rank 1 should have died with code 3, got %v", errs[1])
	}
	sawRootCause := false
	for _, rank := range []int{0, 2} {
		if code := exitCode(errs[rank]); code != 1 {
			t.Fatalf("survivor %d: exit %d (err %v), want 1\nstderr:\n%s",
				rank, code, errs[rank], cmds[rank].Stderr)
		}
		// A survivor may name the crashed worker directly or a peer that
		// the crash already took down (the cascade a real cluster shows);
		// either way the error must be the clean poisoned-fabric one.
		msg := fmt.Sprint(cmds[rank].Stderr)
		if !strings.Contains(msg, "poisoned fabric") || !strings.Contains(msg, "worker") {
			t.Fatalf("survivor %d: unhelpful error:\n%s", rank, msg)
		}
		if strings.Contains(msg, "worker 1") {
			sawRootCause = true
		}
	}
	if !sawRootCause {
		t.Fatalf("no survivor named the crashed worker:\n0: %s\n2: %s", cmds[0].Stderr, cmds[2].Stderr)
	}
}

// Parameters of the forked elastic workload: per-iteration pacing slow
// enough that the parent's SIGKILL reliably lands mid-iteration, and few
// enough iterations to keep the test quick.
const (
	elIters = 6
	elPace  = 300 * time.Millisecond
)

// childElastic runs the elastic counter workload through NewProcBackend:
// every iteration all-exchanges the constant 1 and accumulates the total,
// writing a progress line per iteration so the parent can time its SIGKILL,
// and a final done-line the parent compares across survivors. State (the
// per-barrier accumulator history) lives in the closure and carries across
// generations, exactly as a trainer's snapshots would.
func childElastic() {
	cfg, ok, err := FromEnv()
	if !ok || err != nil {
		fmt.Fprintf(os.Stderr, "bad child env: %v\n", err)
		os.Exit(64)
	}
	cfg.Timeout = 60 * time.Second
	out, err := os.Create(os.Getenv(envChildOut))
	if err != nil {
		fmt.Fprintf(os.Stderr, "out file: %v\n", err)
		os.Exit(64)
	}
	defer out.Close()

	hist := map[int]float64{0: 0}
	var last comm.Membership
	worker := func(m comm.Membership, ep comm.Endpoint) {
		last = m
		resume := 0
		for b := range hist {
			if b > resume {
				resume = b
			}
		}
		if m.Gen > 0 {
			// Agree on the minimum passed barrier, like the elastic trainer.
			for peer := 0; peer < m.P; peer++ {
				if peer != m.Rank {
					ep.Send(peer, float64(resume), 8)
				}
			}
			for peer := 0; peer < m.P; peer++ {
				if peer != m.Rank {
					v, _ := ep.Recv(peer)
					if b := int(v.(float64)); b < resume {
						resume = b
					}
				}
			}
		}
		acc := hist[resume]
		for it := resume; it < elIters; it++ {
			fmt.Fprintf(out, "iter %d p=%d\n", it, m.P)
			time.Sleep(elPace)
			for peer := 0; peer < m.P; peer++ {
				if peer != m.Rank {
					ep.Send(peer, float64(1), 8)
				}
			}
			total := 1.0
			for peer := 0; peer < m.P; peer++ {
				if peer != m.Rank {
					v, _ := ep.Recv(peer)
					total += v.(float64)
				}
			}
			acc += total
			ep.SyncClock()
			hist[it+1] = acc
		}
	}
	_, recs, err := NewProcBackend(cfg).RunElastic(cfg.P, comm.ElasticOptions{MinP: 2, MaxRestarts: 2}, worker)
	if err != nil {
		fmt.Fprintf(os.Stderr, "elastic run: %v\n", err)
		os.Exit(1)
	}
	gen := 0
	if len(recs) > 0 {
		gen = recs[len(recs)-1].Gen
	}
	fmt.Fprintf(out, "done p=%d gen=%d lost=%v acc=%g\n", last.P, gen, last.Lost, hist[elIters])
}

// TestElasticSurvivesSIGKILL is the ISSUE's headline acceptance: a tcpnet
// worker process SIGKILL'd mid-Reduce must leave the survivors able to
// re-rendezvous at generation 1 with the shrunk membership and finish the
// run agreeing bit-exactly. The victim is rank 0, so the recovery also
// exercises rank-0 failover (lowest surviving ID leads the rejoin).
func TestElasticSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	cmds, outs := spawnWorkers(t, "elastic", 3)

	// Wait for the victim to enter iteration 3, then SIGKILL it. The pacing
	// sleep it just started keeps the kill mid-iteration: survivors are
	// blocked in that iteration's Recv or barrier when the sockets die.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(readOut(t, outs[0]), "iter 3") {
		if time.Now().After(deadline) {
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
			t.Fatalf("victim never reached iteration 3; progress:\n%s", readOut(t, outs[0]))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmds[0].Process.Kill(); err != nil {
		t.Fatalf("killing victim: %v", err)
	}

	errs := waitAll(t, cmds, 2*time.Minute)
	if exitCode(errs[0]) != -1 {
		t.Fatalf("victim should have died by signal, got %v", errs[0])
	}
	var done []string
	for _, rank := range []int{1, 2} {
		if code := exitCode(errs[rank]); code != 0 {
			t.Fatalf("survivor %d: exit %d (err %v)\nstderr:\n%s\nout:\n%s",
				rank, code, errs[rank], cmds[rank].Stderr, readOut(t, outs[rank]))
		}
		lines := strings.Split(strings.TrimSpace(readOut(t, outs[rank])), "\n")
		last := lines[len(lines)-1]
		if !strings.HasPrefix(last, "done ") {
			t.Fatalf("survivor %d: no done-line:\n%s", rank, strings.Join(lines, "\n"))
		}
		done = append(done, last)
	}
	if done[0] != done[1] {
		t.Fatalf("survivors disagree after recovery:\n1: %s\n2: %s", done[0], done[1])
	}
	if !strings.Contains(done[0], "p=2") || !strings.Contains(done[0], "gen=1") || !strings.Contains(done[0], "lost=[0]") {
		t.Fatalf("recovery did not shrink to the survivors: %s", done[0])
	}
	// The kill pins the agreed resume barrier at 3 (or 4 when the victim's
	// final sends won the race with the signal); either way the survivors'
	// total is 3 workers × r iterations + 2 workers × (6−r).
	if !strings.Contains(done[0], "acc=15") && !strings.Contains(done[0], "acc=16") {
		t.Fatalf("post-recovery accumulator out of range: %s", done[0])
	}
}

// readOut returns the current contents of a child's output file; a file
// that does not exist yet reads as empty.
func readOut(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return string(data)
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}
