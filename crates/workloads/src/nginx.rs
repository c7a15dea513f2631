//! The nginx-like server workload (paper §6.3).
//!
//! Nginx itself is ~150k lines of C; what the paper's experiment measures
//! is the throughput degradation of a *request-serving loop dominated by
//! `ngx_cpymem`-style copy channels* under each protection scheme, driven
//! by 12 worker threads / 400 connections. This module builds a PIR server
//! with that shape — buffer-heavy request parsing (copy/move channels,
//! exactly the distribution the paper reports: nginx has 720 ICs of which
//! 712 are copy/move), header-field accesses, per-request branching — and
//! a multi-worker driver that runs one VM per simulated worker and
//! reports aggregate throughput.

use pythia_ir::{CmpPred, FunctionBuilder, Inst, Intrinsic, Module, PythiaError, Ty};
use pythia_vm::{InputPlan, RunMetrics, RunResult, Vm, VmConfig};

/// Build the nginx-like module serving `requests` requests.
pub fn nginx_module(requests: u64) -> Module {
    let mut m = Module::new("nginx");
    let resp = m.add_str_global(
        "resp200",
        "HTTP/1.1 200 OK\r\nServer: pythia\r\nContent-Length: 64\r\n\r\n",
    );
    let notfound = m.add_str_global("resp404", "HTTP/1.1 404 Not Found\r\n\r\n");
    let log_fmt = m.add_str_global("log_fmt", "GET / 200\n");

    // ---- ngx_parse_request(conn) -> status ---------------------------
    let parse = {
        let mut b = FunctionBuilder::new("ngx_parse_request", vec![Ty::I64], Ty::I64);
        let conn = b.func().arg(0);
        let reqbuf = b.alloca(Ty::array(Ty::I8, 64));
        let uri = b.alloca(Ty::array(Ty::I8, 32));
        let hdr = b.alloca(Ty::strukt(vec![Ty::I64, Ty::I64]));
        let method = b.alloca(Ty::I64);

        // Socket read (get channel).
        let lim = b.const_i64(63);
        b.call_intrinsic(Intrinsic::Read, vec![conn, reqbuf, lim], Ty::I64);

        // ngx_cpymem-style copies (move/copy channels).
        let twenty_four = b.const_i64(24);
        let one = b.const_i64(1);
        let l0 = b.bin(pythia_ir::BinOp::Srem, conn, twenty_four);
        let len = b.add(l0, one);
        b.call_intrinsic(Intrinsic::Memcpy, vec![uri, reqbuf, len], Ty::ptr(Ty::I8));
        let eight = b.const_i64(8);
        b.call_intrinsic(
            Intrinsic::Memcpy,
            vec![method, reqbuf, eight],
            Ty::ptr(Ty::I8),
        );
        let f0 = b.field_addr(hdr, 0);
        b.call_intrinsic(Intrinsic::Memcpy, vec![f0, reqbuf, eight], Ty::ptr(Ty::I8));

        // Header scan: checksum the request while re-reading the parsed
        // method word — the per-byte loop real parsers run. This is where
        // value-signing schemes pay per-iteration authentication.
        let zero0 = b.const_i64(0);
        let one0 = b.const_i64(1);
        let thirty_two = b.const_i64(32);
        let scan_n = b.const_i64(128);
        let pre = b.current_block();
        let scan = b.new_block("scan");
        let scanned = b.new_block("scanned");
        b.jmp(scan);
        b.switch_to(scan);
        let k = b.phi(vec![(pre, zero0)]);
        let sum = b.phi(vec![(pre, zero0)]);
        let ki = b.bin(pythia_ir::BinOp::Srem, k, thirty_two);
        let bp = b.gep(reqbuf, ki);
        let byte = b.load(bp);
        let wide = b.cast(pythia_ir::CastKind::Sext, byte, Ty::I64);
        let mv_hot = b.load(method);
        let sum1 = b.add(sum, wide);
        let sum2 = b.add(sum1, mv_hot);
        let k2 = b.add(k, one0);
        if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(k) {
            incomings.push((scan, k2));
        }
        if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(sum) {
            incomings.push((scan, sum2));
        }
        let kc = b.icmp(CmpPred::Slt, k2, scan_n);
        b.br(kc, scan, scanned);
        b.switch_to(scanned);

        // Parse: branch on method word and header field.
        let mv = b.load(method);
        let hundred = b.const_i64(100);
        let mh = b.bin(pythia_ir::BinOp::Srem, mv, hundred);
        let fifty = b.const_i64(50);
        let c1 = b.icmp(CmpPred::Sgt, mh, fifty);
        let (t1, e1, j1) = (b.new_block("t1"), b.new_block("e1"), b.new_block("j1"));
        b.br(c1, t1, e1);
        let two_hundred = b.const_i64(200);
        let four_oh_four = b.const_i64(404);
        b.switch_to(t1);
        b.jmp(j1);
        b.switch_to(e1);
        b.jmp(j1);
        b.switch_to(j1);
        let status = b.phi(vec![(t1, two_hundred), (e1, four_oh_four)]);

        let hv = b.load(f0);
        let zero = b.const_i64(0);
        let c2 = b.icmp(CmpPred::Sge, hv, zero);
        let (t2, e2) = (b.new_block("t2"), b.new_block("e2"));
        b.br(c2, t2, e2);
        b.switch_to(t2);
        let ulen = b.call_intrinsic(Intrinsic::Strlen, vec![uri], Ty::I64);
        let s2 = b.add(status, ulen);
        let s3 = b.sub(s2, ulen);
        b.ret(Some(s3));
        b.switch_to(e2);
        b.ret(Some(four_oh_four));
        m.add_function(b.finish())
    };

    // ---- ngx_handle(conn) -> bytes_sent ------------------------------
    let handle = {
        let mut b = FunctionBuilder::new("ngx_handle", vec![Ty::I64], Ty::I64);
        let conn = b.func().arg(0);
        let outbuf = b.alloca(Ty::array(Ty::I8, 64));
        let status = b.call(parse, vec![conn], Ty::I64);
        let two_hundred = b.const_i64(200);
        let c = b.icmp(CmpPred::Eq, status, two_hundred);
        let (ok, nf, join) = (b.new_block("ok"), b.new_block("nf"), b.new_block("join"));
        b.br(c, ok, nf);

        b.switch_to(ok);
        let r200 = b.global_addr(resp, Ty::array(Ty::I8, 56));
        let n200 = b.const_i64(55);
        b.call_intrinsic(Intrinsic::Memcpy, vec![outbuf, r200, n200], Ty::ptr(Ty::I8));
        b.jmp(join);

        b.switch_to(nf);
        let r404 = b.global_addr(notfound, Ty::array(Ty::I8, 27));
        let n404 = b.const_i64(26);
        b.call_intrinsic(Intrinsic::Memcpy, vec![outbuf, r404, n404], Ty::ptr(Ty::I8));
        b.jmp(join);

        b.switch_to(join);
        let sent = b.phi(vec![(ok, n200), (nf, n404)]);
        // Access log (print channel) for ~1/8 of requests.
        let seven = b.const_i64(7);
        let logc = b.bin(pythia_ir::BinOp::And, conn, seven);
        let zero = b.const_i64(0);
        let cl = b.icmp(CmpPred::Eq, logc, zero);
        let (lg, out) = (b.new_block("log"), b.new_block("out"));
        b.br(cl, lg, out);
        b.switch_to(lg);
        let lf = b.global_addr(log_fmt, Ty::array(Ty::I8, 11));
        b.call_intrinsic(Intrinsic::Printf, vec![lf], Ty::I64);
        b.jmp(out);
        b.switch_to(out);
        b.ret(Some(sent));
        m.add_function(b.finish())
    };

    // ---- main: accept loop --------------------------------------------
    {
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let reqs = b.const_i64(requests as i64);
        let entry = b.current_block();
        let body = b.new_block("accept");
        let exit = b.new_block("shutdown");
        b.jmp(body);
        b.switch_to(body);
        let i = b.phi(vec![(entry, zero)]);
        let bytes_in = b.phi(vec![(entry, zero)]);
        let sent = b.call(handle, vec![i], Ty::I64);
        let bytes = b.add(bytes_in, sent);
        let i2 = b.add(i, one);
        if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(i) {
            incomings.push((body, i2));
        }
        if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(bytes_in) {
            incomings.push((body, bytes));
        }
        let c = b.icmp(CmpPred::Slt, i2, reqs);
        b.br(c, body, exit);
        b.switch_to(exit);
        b.ret(Some(bytes));
        m.add_function(b.finish());
    }
    m
}

/// Result of one multi-worker run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NginxRun {
    /// Total "bytes sent" across workers.
    pub bytes: u64,
    /// The slowest worker's cycle count (wall-clock analogue).
    pub wall_cycles: u64,
    /// Summed metrics of worker 0 (representative for counters).
    pub sample: RunMetrics,
}

impl NginxRun {
    /// Throughput in bytes per kilocycle (the transfer-rate analogue the
    /// experiment compares across schemes).
    pub fn throughput(&self) -> f64 {
        if self.wall_cycles == 0 {
            0.0
        } else {
            self.bytes as f64 * 1000.0 / self.wall_cycles as f64
        }
    }

    /// Aggregate the runs of workers `0..n`, in worker order: the bytes
    /// each request loop returned add up, the slowest worker sets the
    /// wall clock, and worker 0 is the counter sample. Failures become
    /// one error naming the first failing worker and counting the rest.
    ///
    /// # Errors
    ///
    /// A `Setup` error for an empty worker list; otherwise the first
    /// failing worker's error.
    pub fn from_workers(
        workers: Vec<Result<RunResult, PythiaError>>,
    ) -> Result<NginxRun, PythiaError> {
        let mut failures = workers.iter().enumerate().filter_map(|(t, w)| {
            w.as_ref()
                .err()
                .map(|e| e.clone().with_function(format!("nginx-worker-{t}")))
        });
        if let Some(first) = failures.next() {
            let more = failures.count();
            return Err(if more > 0 {
                first.amend(format!("(+{more} more worker failures)"))
            } else {
                first
            });
        }
        let ok: Vec<RunResult> = workers.into_iter().flatten().collect();
        let no_workers = || PythiaError::setup("nginx run requires at least one worker");
        let sample = ok.first().ok_or_else(no_workers)?;
        Ok(NginxRun {
            bytes: ok
                .iter()
                .map(|r| r.exit.value().unwrap_or(0).max(0) as u64)
                .sum(),
            wall_cycles: ok.iter().map(|r| r.metrics.cycles()).max().unwrap_or(0),
            sample: sample.metrics,
        })
    }
}

/// Run worker `t` of a multi-worker run seeded `seed`: one VM serving
/// `module`'s request loop under `cfg`, with its own VM seed and input
/// plan derived from `(seed, t)`.
///
/// # Errors
///
/// A `Setup` error from the worker's VM.
pub fn run_worker(
    module: &Module,
    t: usize,
    seed: u64,
    cfg: &VmConfig,
) -> Result<RunResult, PythiaError> {
    // Splitmix-style stream derivation: `seed + t` / `seed ^ (t << 8)`
    // made adjacent seeds share worker streams across runs (base 7
    // worker 1 == base 8 worker 0). Deriving through the avalanche keeps
    // every (seed, worker) pair independent while staying deterministic
    // per pair.
    let cfg = VmConfig {
        seed: crate::server::sched::stream_seed(seed, 0x4B10_0000 | t as u64),
        ..cfg.clone()
    };
    let plan_seed = crate::server::sched::stream_seed(seed, 0x1470_0000 | t as u64);
    Vm::new(module, cfg, InputPlan::benign(plan_seed)).run("main", &[])
}

/// Run `module` (the nginx module, possibly instrumented) on `workers`
/// simulated workers, each serving the module's request loop with its
/// own VM and input plan. Mirrors the paper's 12-thread/400-connection
/// generator. The workers run one after another on the caller's thread;
/// each is panic-isolated, so one failing worker cannot tear down the
/// others, and [`NginxRun::from_workers`] aggregates the outcomes.
///
/// # Errors
///
/// [`PythiaError`] when any worker fails — a `Setup` error from its VM, or
/// an `Internal` error carrying a panic payload.
pub fn run_workers(
    module: &Module,
    workers: usize,
    seed: u64,
    cfg: &VmConfig,
) -> Result<NginxRun, PythiaError> {
    NginxRun::from_workers(
        (0..workers)
            .map(|t| PythiaError::catch_panic(|| run_worker(module, t, seed, cfg)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_analysis::InputChannels;
    use pythia_ir::{verify, IcCategory};
    use pythia_vm::ExitReason;

    #[test]
    fn worker_streams_are_distinct_for_adjacent_seeds() {
        // Regression: `seed ^ (t << 8)` (and `seed + t` plan seeds) let
        // adjacent base seeds reproduce each other's worker streams.
        use crate::server::sched::stream_seed;
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16u64 {
            for t in 0..16u64 {
                assert!(seen.insert(stream_seed(seed, 0x4B10_0000 | t)));
                assert!(seen.insert(stream_seed(seed, 0x1470_0000 | t)));
            }
        }
    }

    #[test]
    fn nginx_module_verifies_and_runs() {
        let m = nginx_module(20);
        verify::verify_module(&m).expect("valid IR");
        let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(5));
        let r = vm.run("main", &[]).unwrap();
        match r.exit {
            ExitReason::Returned(bytes) => assert!(bytes > 20 * 26),
            other => panic!("unexpected exit {other:?}"),
        }
    }

    #[test]
    fn ic_mix_is_copy_dominated_like_real_nginx() {
        let m = nginx_module(10);
        let ics = InputChannels::find(&m);
        let h = ics.histogram();
        let copy = h.get(&IcCategory::MoveCopy).copied().unwrap_or(0);
        assert!(copy * 2 > ics.total(), "copy/move must dominate: {h:?}");
    }

    #[test]
    fn workers_scale_bytes() {
        let m = nginx_module(10);
        let cfg = VmConfig::default();
        let one = run_workers(&m, 1, 9, &cfg).unwrap();
        let four = run_workers(&m, 4, 9, &cfg).unwrap();
        assert!(four.bytes >= one.bytes * 3, "4 workers serve ~4x bytes");
        assert!(one.throughput() > 0.0);
    }

    #[test]
    fn run_workers_equals_from_workers_over_run_worker() {
        let m = nginx_module(8);
        let cfg = VmConfig::default();
        let each: Vec<_> = (0..5).map(|t| run_worker(&m, t, 0x9e, &cfg)).collect();
        assert_eq!(
            run_workers(&m, 5, 0x9e, &cfg).unwrap(),
            NginxRun::from_workers(each).unwrap()
        );
    }

    #[test]
    fn from_workers_names_the_first_failure_and_counts_the_rest() {
        let m = nginx_module(4);
        let ok = || run_worker(&m, 0, 1, &VmConfig::default());
        let bad = || Err(PythiaError::setup("no entry"));
        let err = NginxRun::from_workers(vec![ok(), bad(), ok(), bad(), bad()]).unwrap_err();
        assert_eq!(err.variant(), "setup");
        assert_eq!(err.context().function.as_deref(), Some("nginx-worker-1"));
        assert!(err.to_string().contains("+2 more worker failures"), "{err}");
        let none = NginxRun::from_workers(Vec::new()).unwrap_err();
        assert_eq!(none.variant(), "setup");
    }

    #[test]
    fn request_count_scales_work() {
        let small = nginx_module(5);
        let big = nginx_module(50);
        let mut vm_s = Vm::new(&small, VmConfig::default(), InputPlan::benign(1));
        let mut vm_b = Vm::new(&big, VmConfig::default(), InputPlan::benign(1));
        let rs = vm_s.run("main", &[]).unwrap();
        let rb = vm_b.run("main", &[]).unwrap();
        assert!(rb.metrics.insts > rs.metrics.insts * 8);
    }
}
