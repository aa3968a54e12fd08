//! The interpreter's one engine: a [`Program`]'s blocks run in groups of
//! 32 lanes (a warp) or of one.
//!
//! Warps run in thread-id order, each until every lane has exited or
//! reached a barrier (a barrier kernel round-robins its warps per
//! interval), on a register file holding one `[u64; 32]` per slot. A warp
//! group runs each micro-op once over every lane at the lowest pc among
//! the warp's runnable lanes (min-pc reconvergence). One-lane groups run
//! the warp's lanes one after another, each in its own column until it
//! exits or reaches a barrier: the thread-serial order.
//!
//! A warp gives exactly the thread-serial result when, in every *warp
//! run* (one warp between two barriers), every pair of accesses to one
//! global or shared word that conflicts (different lanes, at least one
//! writing) happens lower lane first, as one-lane groups order it. Pairs of
//! one lane keep program order in both, and everything outside a warp run
//! is ordered alike in both. So each read returns the same value, each
//! lane takes the same path, and memory, statistics and the words accessed
//! are equal. A one-lane group never diverges and makes no cross-lane pair.
//!
//! A warp run checks that rule as it goes: per word it keeps the highest
//! lane that read it and that wrote it during the run. When the rule
//! breaks, on any [`ExecError`], or when a warp's dispatches could have let
//! one of its lanes exceed the step budget, the block's global stores are
//! undone, what the sink logged is dropped, and the block reruns in
//! one-lane groups into the same sink, which return errors, step limits
//! and partial memory directly.

use super::*;

/// Lanes per warp.
pub(crate) const WARP: usize = 32;
/// Every lane of a full warp.
const FULL: u32 = u32::MAX;
/// One register slot of a warp: its value in every lane.
type Lanes = [u64; WARP];
/// Groups of at most this many lanes run lane by lane rather than over
/// the whole warp.
const SPARSE: u32 = 8;

/// What a run reports to: nothing for the plain pass, the access log for
/// the logged one, the trace recorder for a warp trace, an
/// [`ExecObserver`] for a one-lane run ([`Observed`]). A block that falls
/// back reports its one-lane rerun through the same hooks.
pub(crate) trait Sink {
    /// A full warp's access to the 32 aligned words from `addr`.
    fn on_warp_access(&mut self, _addr: u64, _store: bool) {}

    /// Lane `l` of warp `w` accesses the word at `addr` at `pc`; a load
    /// whose lanes share one address reports its lowest lane once.
    fn on_lane_access(&mut self, _w: usize, _l: usize, _pc: usize, _addr: u64, _store: bool) {}

    /// A dispatch of warp `w` at `pc` in the lanes of `exec`, those whose
    /// guard passed.
    fn on_dispatch(&mut self, _w: usize, _pc: usize, _exec: u32) {}

    /// A global load or store of warp `w` at `pc`: the address of each
    /// lane of `exec`.
    fn on_global(&mut self, _w: usize, _pc: usize, _exec: u32, _addr: &[u64; WARP]) {}

    /// Drops everything observed since the block started.
    fn discard(&mut self) {}
}

impl Sink for NullObserver {}

/// An [`ExecObserver`] watching a one-lane run: each one-lane dispatch is
/// that thread's instruction, each lane access its global access, both in
/// thread-serial order.
pub(super) struct Observed<'a, O> {
    pub(super) obs: &'a mut O,
    pub(super) tb: u32,
    pub(super) body: &'a [Inst],
}

impl<O: ExecObserver> Sink for Observed<'_, O> {
    fn on_lane_access(&mut self, w: usize, l: usize, pc: usize, addr: u64, store: bool) {
        let tid = (WARP * w + l) as u32;
        self.obs
            .on_global_access(ThreadId { tb: self.tb, tid }, pc, addr, store);
    }

    fn on_dispatch(&mut self, w: usize, pc: usize, exec: u32) {
        if exec != 0 {
            let tid = (WARP * w + lane(exec)) as u32;
            self.obs
                .on_inst(ThreadId { tb: self.tb, tid }, pc, &self.body[pc].op);
        }
    }
}

/// The engine's reusable state: register files, warp states, shared
/// memory, the lane-order table, the undo log and the thread indices,
/// kept across blocks so a block allocates nothing once they have grown,
/// and a launch lays out its thread indices once.
///
/// [`Lockstep::execute_block`] is the plain pass; `AccessLog` runs the
/// logged one on its own engine, and `trace_block_limited` the trace.
#[derive(Default)]
pub struct Lockstep {
    /// One register file per warp of a barrier kernel, else one reused.
    files: Vec<Lanes>,
    warps: Vec<Warp>,
    shared: Vec<u8>,
    table: LaneTable,
    /// Every global word the block stored to, with the value it replaced.
    undo: Vec<(u64, u32)>,
    /// `%tid` in every lane, the four slots of [`TID`] per warp, for the
    /// blocks of `tids_for`: (threads per row, warps).
    tids: Vec<Lanes>,
    tids_for: (u32, usize),
    fallbacks: u64,
}

impl Lockstep {
    /// A fresh engine.
    pub fn new() -> Self {
        Lockstep::default()
    }

    /// Runs block `tb` of `program` without an observer: memory, statistics
    /// and errors are those of [`Program::execute_block`].
    ///
    /// # Errors
    ///
    /// As [`Program::execute_block`].
    pub fn execute_block(
        &mut self,
        program: &Program,
        tb: u32,
        mem: &mut GlobalMem,
        max_steps: u64,
    ) -> Result<ExecStats, ExecError> {
        program.lockstep(self, &mut NullObserver, tb, mem, max_steps)
    }

    /// Blocks rerun one lane at a time so far.
    pub fn fallback_blocks(&self) -> u64 {
        self.fallbacks
    }

    /// Lays out `%tid` for `warps` warps of blocks `bx` threads wide,
    /// unless the table already holds it: once per launch, counting
    /// threads along rows rather than dividing per lane.
    fn index_threads(&mut self, bx: u32, warps: usize) {
        if self.tids_for == (bx, warps) {
            return;
        }
        self.tids_for = (bx, warps);
        self.tids.clear();
        let (mut x, mut y) = (0u32, 0u32);
        let float = |v: u32| u64::from((v as f32).to_bits());
        for _ in 0..warps {
            let lanes: [(u32, u32); WARP] = std::array::from_fn(|_| {
                let at = (x, y);
                x += 1;
                if x == bx {
                    (x, y) = (0, y + 1);
                }
                at
            });
            self.tids.extend([
                lanes.map(|(x, _)| u64::from(x)),
                lanes.map(|(_, y)| u64::from(y)),
                lanes.map(|(x, _)| float(x)),
                lanes.map(|(_, y)| float(y)),
            ]);
        }
    }
}

/// A run stops: a warp run falls back, or an error is parked in its
/// [`Ctx`].
struct Stop;

/// Scheduling state of one warp between its runs.
#[derive(Clone, Copy, Default)]
struct Warp {
    /// The next instruction of each lane not in the running group.
    pc: [u32; WARP],
    /// Lanes that can run.
    ready: u32,
    /// Lanes stopped at a barrier.
    barrier: u32,
    /// Instructions fetched by each lane of one-lane runs. Warp runs count
    /// their dispatches in lane 0: no lane has fetched more.
    steps: [u64; WARP],
}

/// Per-block state the warps share.
struct Ctx<'a, S> {
    tb: u32,
    mem: &'a mut GlobalMem,
    sink: &'a mut S,
    shared: &'a mut [u8],
    table: &'a mut LaneTable,
    undo: &'a mut Vec<(u64, u32)>,
    stats: ExecStats,
    max_steps: u64,
    /// The region of the block's last global access.
    near: usize,
    /// Why the run stopped, when an instruction failed.
    error: Option<ExecError>,
}

impl<S> Ctx<'_, S> {
    /// Parks `e` for the block's caller.
    #[cold]
    fn fail(&mut self, e: ExecError) -> Stop {
        self.error = Some(e);
        Stop
    }

    #[cold]
    fn unmapped(&mut self, addr: u64) -> Stop {
        self.fail(ExecError::Unmapped { tb: self.tb, addr })
    }
}

/// The lowest lane of `exec`, which is not empty.
#[inline(always)]
fn lane(exec: u32) -> usize {
    exec.trailing_zeros() as usize % WARP
}

/// The lanes of `exec` in ascending order.
fn lanes_of(mut exec: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = exec.trailing_zeros() as usize;
        exec &= exec.wrapping_sub(1);
        (l < WARP).then_some(l)
    })
}

/// The lowest pc among the lanes of `waiting`, and the lanes at it.
#[inline]
fn lowest(pc: &[u32; WARP], waiting: u32) -> (u32, u32) {
    let masked: [u32; WARP] = std::array::from_fn(|l| {
        if waiting >> l & 1 != 0 {
            pc[l]
        } else {
            u32::MAX
        }
    });
    let at = masked.into_iter().fold(u32::MAX, u32::min);
    let group = (0..WARP).fold(0, |m, l| m | u32::from(masked[l] == at) << l);
    (at, group & waiting)
}

#[inline]
fn set_pc(pc: &mut [u32; WARP], lanes: u32, to: usize) {
    for (l, p) in pc.iter_mut().enumerate() {
        if lanes >> l & 1 != 0 {
            *p = to as u32;
        }
    }
}

/// `d ← f(a, b, c)` in the lanes of `exec`, groups of `W` lanes. Unless
/// they are few, every lane is computed and the idle ones are discarded:
/// the operations are pure and total.
#[inline(always)]
fn map<const W: usize>(
    file: &mut [Lanes],
    i: &MicroInst,
    exec: u32,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let [a, b, c, d] = [i.a, i.b, i.c, i.d].map(|s| s as usize);
    if W == 1 {
        let l = lane(exec);
        file[d][l] = f(file[a][l], file[b][l], file[c][l]);
        return;
    }
    if exec.count_ones() <= SPARSE {
        for l in lanes_of(exec) {
            file[d][l] = f(file[a][l], file[b][l], file[c][l]);
        }
        return;
    }
    let mut out: Lanes = [0; WARP];
    let (a, b, c) = (&file[a], &file[b], &file[c]);
    for l in 0..WARP {
        out[l] = f(a[l], b[l], c[l]);
    }
    let d = &mut file[d];
    if exec == FULL {
        // Two half copies, each inlined, where one whole-slot copy is an
        // out-of-line `memcpy` call.
        let (lo, hi) = d.split_at_mut(WARP / 2);
        lo.copy_from_slice(&out[..WARP / 2]);
        hi.copy_from_slice(&out[WARP / 2..]);
    } else {
        for l in lanes_of(exec) {
            d[l] = out[l];
        }
    }
}

/// `$body` with `$o` bound to the value of `$op` as a constant, so the
/// operator's own `match` folds out of the lane loop `$body` runs.
macro_rules! with_const {
    ($op:expr, $o:ident: IntOp => $body:expr) => {
        with_const!($op, $o: IntOp[Add, Sub, Mul, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr] => $body)
    };
    ($op:expr, $o:ident: FloatOp => $body:expr) => {
        with_const!($op, $o: FloatOp[Add, Sub, Mul, Div, Min, Max] => $body)
    };
    ($op:expr, $o:ident: CmpOp => $body:expr) => {
        with_const!($op, $o: CmpOp[Eq, Ne, Lt, Le, Gt, Ge] => $body)
    };
    ($op:expr, $o:ident: $ty:ident[$($v:ident),*] => $body:expr) => {
        match $op {
            $($ty::$v => {
                const $o: $ty = $ty::$v;
                $body
            })*
        }
    };
}

/// Whether the 32 lanes access consecutive aligned words.
#[inline(always)]
fn contiguous(addr: &[u64; WARP]) -> bool {
    addr[0].is_multiple_of(4) && (0..WARP).all(|l| addr[l] == addr[0].wrapping_add(4 * l as u64))
}

/// Whether every lane of `exec` accesses the address of its lowest lane.
#[inline(always)]
fn uniform(addr: &[u64; WARP], exec: u32) -> bool {
    let at = addr[exec.trailing_zeros() as usize];
    (0..WARP).all(|l| exec >> l & 1 == 0 || addr[l] == at)
}

fn le_word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

impl Program<'_> {
    /// Whether block `tb` is in the launch, and `subset`, when given, lists
    /// strictly ascending thread ids of a block.
    fn check(&self, tb: u32, subset: Option<&[u32]>) -> Result<(), ExecError> {
        let n = self.launch.threads_per_block();
        let threads =
            |t: &[u32]| t.windows(2).all(|p| p[0] < p[1]) && t.last().is_none_or(|&l| l < n);
        if tb < self.launch.num_blocks() && subset.is_none_or(threads) {
            Ok(())
        } else {
            Err(ExecError::OutsideLaunch { tb })
        }
    }

    /// Runs block `tb` in warps, reporting to `sink`; a block the warps
    /// cannot keep in thread-serial order is undone and rerun one lane at
    /// a time.
    pub(crate) fn lockstep<S: Sink>(
        &self,
        ls: &mut Lockstep,
        sink: &mut S,
        tb: u32,
        mem: &mut GlobalMem,
        max_steps: u64,
    ) -> Result<ExecStats, ExecError> {
        self.check(tb, None)?;
        ls.undo.clear();
        if let Ok(stats) = self.run_block::<S, WARP>(ls, sink, tb, mem, max_steps, None) {
            return Ok(stats);
        }
        for &(addr, old) in ls.undo.iter().rev() {
            mem.try_write_u32(addr, old)
                .expect("an undone word was written");
        }
        sink.discard();
        ls.fallbacks += 1;
        self.serial(ls, sink, tb, mem, max_steps, None)
    }

    /// Runs block `tb`, or only the threads of `subset`, one lane at a
    /// time, reporting to `sink`.
    pub(crate) fn serial<S: Sink>(
        &self,
        ls: &mut Lockstep,
        sink: &mut S,
        tb: u32,
        mem: &mut GlobalMem,
        max_steps: u64,
        subset: Option<&[u32]>,
    ) -> Result<ExecStats, ExecError> {
        self.check(tb, subset)?;
        self.run_block::<S, 1>(ls, sink, tb, mem, max_steps, subset)
            .map_err(|e| e.expect("a one-lane run stops only on an error"))
    }

    /// Runs the threads of `subset` of block `tb` (all of them for `None`)
    /// in groups of `W` lanes: `WARP` or 1. A run that stops returns its
    /// parked error, or `None` for a fallback.
    fn run_block<S: Sink, const W: usize>(
        &self,
        ls: &mut Lockstep,
        sink: &mut S,
        tb: u32,
        mem: &mut GlobalMem,
        max_steps: u64,
        subset: Option<&[u32]>,
    ) -> Result<ExecStats, Option<ExecError>> {
        let n = self.launch.threads_per_block();
        let slots = self.row.len();
        let warps = n.div_ceil(WARP as u32) as usize;
        ls.warps.clear();
        ls.warps.resize(warps, Warp::default());
        match subset {
            None => {
                for (w, warp) in ls.warps.iter_mut().enumerate() {
                    warp.ready = FULL >> (WARP - (n as usize - WARP * w).min(WARP));
                }
            }
            Some(threads) => {
                for &t in threads {
                    ls.warps[t as usize / WARP].ready |= 1 << (t as usize % WARP);
                }
            }
        }
        let files = if self.barrier { warps } else { 1 };
        ls.files.resize(files * slots, [0; WARP]);
        let (bx, by) = self.launch.block_coords(tb);
        for (w, file) in ls.files.chunks_exact_mut(slots).take(files).enumerate() {
            if self.barrier && ls.warps[w].ready == 0 {
                continue;
            }
            for (lanes, &v) in file.iter_mut().zip(&self.row[..self.regs]) {
                *lanes = [v; WARP];
            }
            for (s, v) in CTAID.iter().zip([bx, by]) {
                file[*s as usize] = [u64::from(v); WARP];
                file[*s as usize + 2] = [u64::from((v as f32).to_bits()); WARP];
            }
        }
        ls.shared.clear();
        ls.shared
            .resize(self.launch.kernel.shared_bytes as usize, 0);
        if W != 1 {
            ls.table.begin_block(ls.shared.len());
        }
        ls.index_threads(self.launch.block.x, warps);
        let mut ctx = Ctx {
            tb,
            mem,
            sink,
            shared: &mut ls.shared,
            table: &mut ls.table,
            undo: &mut ls.undo,
            stats: ExecStats::default(),
            max_steps,
            near: usize::MAX,
            error: None,
        };
        match self.run_warps::<S, W>(&mut ctx, &mut ls.files, &mut ls.warps, &ls.tids) {
            Ok(()) => Ok(ctx.stats),
            Err(Stop) => Err(ctx.error),
        }
    }

    /// Runs the ready lanes of every warp, round-robin per barrier interval
    /// until no lane waits at a barrier. A barrier kernel keeps a register
    /// file per warp; any other runs each warp once in one reused file.
    fn run_warps<S: Sink, const W: usize>(
        &self,
        ctx: &mut Ctx<'_, S>,
        files: &mut [Lanes],
        warps: &mut [Warp],
        tids: &[Lanes],
    ) -> Result<(), Stop> {
        let slots = self.row.len();
        let at = |w: usize| if self.barrier { slots * w } else { 0 };
        let tid = |w: usize| &tids[TID.len() * w..][..TID.len()];
        for (w, warp) in warps.iter().enumerate() {
            if self.barrier && warp.ready != 0 {
                self.start_warp(&mut files[at(w)..][..slots], tid(w));
            }
        }
        loop {
            let mut any_ready = false;
            for (w, warp) in warps.iter_mut().enumerate() {
                if warp.ready != 0 {
                    any_ready = true;
                    let file = &mut files[at(w)..][..slots];
                    if !self.barrier {
                        self.start_warp(file, tid(w));
                    }
                    self.run_warp::<S, W>(ctx, file, warp, w)?;
                }
            }
            if !any_ready {
                let mut waiting = false;
                for warp in warps.iter_mut() {
                    warp.ready = std::mem::take(&mut warp.barrier);
                    waiting |= warp.ready != 0;
                }
                if !waiting {
                    return Ok(());
                }
            }
        }
    }

    /// Sets a warp's thread indices `tid` in `file` and zeroes the
    /// registers a thread can read before writing.
    fn start_warp(&self, file: &mut [Lanes], tid: &[Lanes]) {
        file[TID[0] as usize..=TID[3] as usize].copy_from_slice(tid);
        for &s in &self.zero {
            file[s as usize] = [0; WARP];
        }
    }

    /// Runs the ready lanes of warp `w` in groups of `W` lanes until each
    /// has exited or stopped at a barrier.
    fn run_warp<S: Sink, const W: usize>(
        &self,
        ctx: &mut Ctx<'_, S>,
        file: &mut [Lanes],
        warp: &mut Warp,
        w: usize,
    ) -> Result<(), Stop> {
        if W != 1 {
            ctx.table.begin_run();
        }
        let mut waiting = std::mem::take(&mut warp.ready);
        // The running group: its lanes, their pc, and the lowest pc of the
        // lanes waiting apart from it; the lane counting its steps.
        let (mut group, mut pc, mut next, mut k) = (0u32, 0usize, u32::MAX, 0usize);
        loop {
            if group == 0 {
                if waiting == 0 {
                    return Ok(());
                }
                if W == 1 {
                    // One lane runs until it exits or stops at a barrier.
                    k = lane(waiting);
                    group = 1 << k;
                    pc = warp.pc[k] as usize;
                    waiting &= !group;
                } else {
                    let at;
                    (at, group) = lowest(&warp.pc, waiting);
                    waiting &= !group;
                    pc = at as usize;
                    next = lowest(&warp.pc, waiting).0;
                }
            }
            let Some(i) = self.ops.get(pc) else {
                group = 0;
                continue;
            };
            warp.steps[k] += 1;
            if warp.steps[k] > ctx.max_steps {
                return Err(if W == 1 {
                    ctx.fail(ExecError::StepLimit {
                        tb: ctx.tb,
                        tid: (WARP * w + k) as u32,
                    })
                } else {
                    Stop
                });
            }
            let g = &file[i.guard as usize];
            let exec = if i.guard == ONE {
                group
            } else if W == 1 {
                group & u32::from(g[k] != i.skip) << k
            } else if group.count_ones() <= SPARSE {
                lanes_of(group).fold(0, |m, l| m | u32::from(g[l] != i.skip) << l)
            } else {
                group & (0..WARP).fold(0, |m, l| m | u32::from(g[l] != i.skip) << l)
            };
            ctx.stats.instructions += u64::from(exec.count_ones());
            ctx.sink.on_dispatch(w, pc, exec);
            match i.op {
                UOp::Bra => {
                    let stay = group & !exec;
                    if stay == 0 {
                        pc = i.imm as usize;
                    } else if exec == 0 {
                        pc += 1;
                    } else {
                        set_pc(&mut warp.pc, exec, i.imm as usize);
                        set_pc(&mut warp.pc, stay, pc + 1);
                        waiting |= group;
                        group = 0;
                        continue;
                    }
                }
                UOp::Bar => {
                    set_pc(&mut warp.pc, exec, pc + 1);
                    warp.barrier |= exec;
                    group &= !exec;
                    pc += 1;
                }
                UOp::Ret => {
                    group &= !exec;
                    pc += 1;
                }
                _ => {
                    if exec != 0 {
                        self.dispatch::<S, W>(ctx, file, i, exec, w, pc)?;
                    }
                    pc += 1;
                }
            }
            if group != 0 && pc as u32 >= next {
                // Lanes waiting at or below the new pc run first.
                set_pc(&mut warp.pc, group, pc);
                waiting |= group;
                group = 0;
            }
        }
    }

    /// Executes a non-control micro-op in the lanes of `exec`: the one
    /// `match` over what micro-ops compute.
    fn dispatch<S: Sink, const W: usize>(
        &self,
        ctx: &mut Ctx<'_, S>,
        file: &mut [Lanes],
        i: &MicroInst,
        exec: u32,
        w: usize,
        pc: usize,
    ) -> Result<(), Stop> {
        let f = |v: u64| f32::from_bits(v as u32);
        let bits = |v: f32| u64::from(v.to_bits());
        macro_rules! map {
            ($f:expr) => {
                map::<W>(file, i, exec, $f)
            };
        }
        match i.op {
            UOp::Nop => {}
            UOp::Copy => map!(|a, _, _| a),
            UOp::Trunc32 => map!(|a, _, _| u64::from(a as u32)),
            UOp::F2U => map!(|a, _, _| u64::from(f(a) as u32)),
            UOp::U2F => map!(|a, _, _| bits(a as f32)),
            UOp::IntU32(op) => with_const!(op, O: IntOp => map!(|a, b, _| {
                u64::from(int_op_u32(O, a as u32, b as u32))
            })),
            UOp::IntS32(op) => with_const!(op, O: IntOp => map!(|a, b, _| {
                u64::from(int_op_s32(O, a as u32 as i32, b as u32 as i32) as u32)
            })),
            UOp::DivShr => {
                let k = i.imm;
                map!(|a, _, _| u64::from(a as u32 >> k))
            }
            UOp::RemAnd => {
                let mask = i.imm as u32;
                map!(|a, _, _| u64::from(a as u32 & mask))
            }
            UOp::DivMul => {
                let m = i.imm;
                map!(|a, _, _| u64::from(div_by(m, a as u32)))
            }
            UOp::RemMul => {
                let (m, d) = (i.imm, self.row[i.b as usize] as u32);
                map!(|a, _, _| u64::from(rem_by(m, d, a as u32)))
            }
            UOp::IntU64(op) => with_const!(op, O: IntOp => map!(|a, b, _| int_op_u64(O, a, b))),
            UOp::Mad32 => map!(|a, b, c| {
                u64::from((a as u32).wrapping_mul(b as u32).wrapping_add(c as u32))
            }),
            UOp::Mad64 => map!(|a, b, c| a.wrapping_mul(b).wrapping_add(c)),
            // Idle lanes may hold stale wide values: wrap rather than trap.
            UOp::MulWide => map!(|a, b, _| a.wrapping_mul(b)),
            UOp::MadWide => map!(|a, b, c| a.wrapping_mul(b).wrapping_add(c)),
            UOp::Float(op) => with_const!(op, O: FloatOp => map!(|a, b, _| {
                bits(float_op(O, f(a), f(b)))
            })),
            UOp::Fma => map!(|a, b, c| bits(f(a).mul_add(f(b), f(c)))),
            UOp::Sqrt => map!(|a, _, _| bits(f(a).sqrt())),
            UOp::SetpU(cmp) => with_const!(cmp, O: CmpOp => map!(|a, b, _| {
                u64::from(compare(O, a, b))
            })),
            UOp::SetpS32(cmp) => with_const!(cmp, O: CmpOp => map!(|a, b, _| {
                u64::from(compare(O, a as u32 as i32, b as u32 as i32))
            })),
            UOp::SetpF(cmp) => with_const!(cmp, O: CmpOp => map!(|a, b, _| {
                u64::from(compare(O, f(a), f(b)))
            })),
            UOp::Selp => map!(|a, b, c| if c != 0 { a } else { b }),
            UOp::LdG => self.load_global::<S, W>(ctx, file, i, exec, w, pc)?,
            UOp::StG => self.store_global::<S, W>(ctx, file, i, exec, w, pc)?,
            UOp::LdS => {
                for l in lanes_of(exec) {
                    let at = self.shared_at(ctx, file[i.a as usize][l], i.imm)?;
                    if W != 1 {
                        ctx.table.access(true, at as u64, l, l, false)?;
                    }
                    file[i.d as usize][l] = u64::from(le_word(&ctx.shared[at..]));
                }
            }
            UOp::StS => {
                for l in lanes_of(exec) {
                    let at = self.shared_at(ctx, file[i.b as usize][l], i.imm)?;
                    if W != 1 {
                        ctx.table.access(true, at as u64, l, l, true)?;
                    }
                    let v = file[i.a as usize][l] as u32;
                    ctx.shared[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            UOp::Bra | UOp::Bar | UOp::Ret => unreachable!("control flow is scheduled"),
        }
        Ok(())
    }

    /// The in-bounds start of the shared word at `base + off`, where `base`
    /// is a 32-bit register value and `off` the bits of an `i64`.
    #[inline]
    fn shared_at<S>(&self, ctx: &mut Ctx<'_, S>, base: u64, off: u64) -> Result<usize, Stop> {
        let addr = (base as u32 as i64).wrapping_add(off as i64) as u64;
        match addr.checked_add(4) {
            Some(end) if end <= ctx.shared.len() as u64 => Ok(addr as usize),
            _ => Err(ctx.fail(ExecError::SharedOutOfBounds {
                addr,
                size: self.launch.kernel.shared_bytes,
            })),
        }
    }

    fn load_global<S: Sink, const W: usize>(
        &self,
        ctx: &mut Ctx<'_, S>,
        file: &mut [Lanes],
        i: &MicroInst,
        exec: u32,
        w: usize,
        pc: usize,
    ) -> Result<(), Stop> {
        let addr: [u64; WARP] = std::array::from_fn(|l| file[i.a as usize][l].wrapping_add(i.imm));
        ctx.sink.on_global(w, pc, exec, &addr);
        ctx.stats.global_loads += u64::from(exec.count_ones());
        let d = &mut file[i.d as usize];
        if W != 1 && exec == FULL && contiguous(&addr) {
            if let Some(bytes) = ctx.mem.chunk_bytes(&mut ctx.near, addr[0], 4 * WARP) {
                ctx.table.warp_access(addr[0], false)?;
                ctx.sink.on_warp_access(addr[0], false);
                for (v, b) in d.iter_mut().zip(bytes.chunks_exact(4)) {
                    *v = u64::from(le_word(b));
                }
                return Ok(());
            }
        }
        // A one-lane group is uniform.
        if W == 1 || uniform(&addr, exec) {
            let (lo, hi) = (lane(exec), 31 - exec.leading_zeros() as usize);
            ctx.sink.on_lane_access(w, lo, pc, addr[lo], false);
            let v = ctx
                .mem
                .read_u32_near(&mut ctx.near, addr[lo])
                .ok_or_else(|| ctx.unmapped(addr[lo]))?;
            if W != 1 {
                ctx.table.access(false, addr[lo], lo, hi, false)?;
            }
            for l in lanes_of(exec) {
                d[l] = u64::from(v);
            }
            return Ok(());
        }
        for l in lanes_of(exec) {
            ctx.sink.on_lane_access(w, l, pc, addr[l], false);
            let v = ctx
                .mem
                .read_u32_near(&mut ctx.near, addr[l])
                .ok_or_else(|| ctx.unmapped(addr[l]))?;
            ctx.table.access(false, addr[l], l, l, false)?;
            d[l] = u64::from(v);
        }
        Ok(())
    }

    fn store_global<S: Sink, const W: usize>(
        &self,
        ctx: &mut Ctx<'_, S>,
        file: &[Lanes],
        i: &MicroInst,
        exec: u32,
        w: usize,
        pc: usize,
    ) -> Result<(), Stop> {
        let addr: [u64; WARP] = std::array::from_fn(|l| file[i.b as usize][l].wrapping_add(i.imm));
        let v = &file[i.a as usize];
        ctx.sink.on_global(w, pc, exec, &addr);
        ctx.stats.global_stores += u64::from(exec.count_ones());
        if W != 1 && exec == FULL && contiguous(&addr) {
            if let Some(bytes) = ctx.mem.chunk_bytes_mut(&mut ctx.near, addr[0], 4 * WARP) {
                ctx.table.warp_access(addr[0], true)?;
                ctx.sink.on_warp_access(addr[0], true);
                for (l, b) in bytes.chunks_exact_mut(4).enumerate() {
                    ctx.undo.push((addr[l], le_word(b)));
                    b.copy_from_slice(&(v[l] as u32).to_le_bytes());
                }
                return Ok(());
            }
        }
        for l in lanes_of(exec) {
            ctx.sink.on_lane_access(w, l, pc, addr[l], true);
            let old = ctx
                .mem
                .swap_u32_near(&mut ctx.near, addr[l], v[l] as u32)
                .ok_or_else(|| ctx.unmapped(addr[l]))?;
            // A one-lane run is never undone.
            if W != 1 {
                ctx.undo.push((addr[l], old));
                ctx.table.access(false, addr[l], l, l, true)?;
            }
        }
        Ok(())
    }
}

/// The highest lane (plus one; 0 for none) that read and that wrote each
/// word of a 128-byte segment in the current warp run.
#[derive(Clone, Copy)]
struct Seg {
    key: u64,
    /// The run that last claimed the entry: any other run sees it empty.
    stamp: u32,
    read: [u8; WARP],
    write: [u8; WARP],
}

const EMPTY: Seg = Seg {
    key: 0,
    stamp: 0,
    read: [0; WARP],
    write: [0; WARP],
};

/// The lane-order rule's state. Global segments live in an
/// open-addressing table keyed by segment number, shared ones in a list
/// indexed by it. Entries are stamped with their run, so a new run starts
/// empty without clearing, and the global table only grows to one run's
/// footprint.
struct LaneTable {
    global: Vec<Seg>,
    shared: Vec<Seg>,
    stamp: u32,
    /// Global entries claimed in this run.
    live: usize,
    /// The last global segment looked up in this run, and its index.
    last: (u64, usize),
}

impl Default for LaneTable {
    fn default() -> Self {
        LaneTable {
            global: Vec::new(),
            shared: Vec::new(),
            stamp: 0,
            live: 0,
            last: (u64::MAX, 0),
        }
    }
}

/// `seg`, cleared first when it belongs to another run.
#[inline(always)]
fn claim(seg: &mut Seg, key: u64, stamp: u32) -> &mut Seg {
    if seg.stamp != stamp {
        *seg = Seg {
            key,
            stamp,
            ..EMPTY
        };
    }
    seg
}

impl LaneTable {
    /// Starts a block with `shared_bytes` of shared memory.
    fn begin_block(&mut self, shared_bytes: usize) {
        self.shared.resize(shared_bytes.div_ceil(128), EMPTY);
    }

    fn begin_run(&mut self) {
        self.live = 0;
        self.last = (u64::MAX, 0);
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.global.fill(EMPTY);
            self.shared.fill(EMPTY);
            self.stamp = 1;
        }
    }

    /// The entry of the segment holding byte `at`, claimed for this run if
    /// it is not yet.
    #[inline]
    fn seg(&mut self, shared: bool, at: u64) -> &mut Seg {
        let key = at >> 7;
        if shared {
            return claim(&mut self.shared[key as usize], key, self.stamp);
        }
        if self.last.0 == key {
            return &mut self.global[self.last.1];
        }
        if 4 * (self.live + 1) > 3 * self.global.len() {
            self.grow();
        }
        let mask = self.global.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while self.global[i].stamp == self.stamp && self.global[i].key != key {
            i = (i + 1) & mask;
        }
        self.live += usize::from(self.global[i].stamp != self.stamp);
        self.last = (key, i);
        claim(&mut self.global[i], key, self.stamp)
    }

    #[cold]
    fn grow(&mut self) {
        let bigger = vec![EMPTY; (2 * self.global.len()).max(64)];
        let old = std::mem::replace(&mut self.global, bigger);
        let stamp = self.stamp;
        self.live = 0;
        self.last = (u64::MAX, 0);
        for seg in old.into_iter().filter(|s| s.stamp == stamp) {
            *self.seg(false, seg.key << 7) = seg;
        }
    }

    /// Records a read (or write) of the 4 bytes at `addr` by lanes
    /// `lo..=hi`: both words when they straddle two. It conflicts with an
    /// earlier write (or access) from above `lo`.
    #[inline]
    fn access(
        &mut self,
        shared: bool,
        addr: u64,
        lo: usize,
        hi: usize,
        store: bool,
    ) -> Result<(), Stop> {
        let first = addr & !3;
        self.word(shared, first, lo, hi, store)?;
        if addr != first {
            self.word(shared, first + 4, lo, hi, store)?;
        }
        Ok(())
    }

    #[inline]
    fn word(
        &mut self,
        shared: bool,
        at: u64,
        lo: usize,
        hi: usize,
        store: bool,
    ) -> Result<(), Stop> {
        let seg = self.seg(shared, at);
        let k = (at >> 2) as usize % WARP;
        let (lo, hi) = (lo as u8 + 1, hi as u8 + 1);
        if seg.write[k] > lo || store && seg.read[k] > lo {
            return Err(Stop);
        }
        let rec = if store {
            &mut seg.write[k]
        } else {
            &mut seg.read[k]
        };
        *rec = (*rec).max(hi);
        Ok(())
    }

    /// Records a full warp's access to the 32 aligned global words from
    /// `addr`, lane `l` at word `l`.
    #[inline]
    fn warp_access(&mut self, addr: u64, store: bool) -> Result<(), Stop> {
        if !addr.is_multiple_of(128) {
            for l in 0..WARP {
                self.word(false, addr + 4 * l as u64, l, l, store)?;
            }
            return Ok(());
        }
        let seg = self.seg(false, addr);
        let lane = |k: usize| k as u8 + 1;
        let mut late = false;
        for k in 0..WARP {
            late |= seg.write[k] > lane(k) || store && seg.read[k] > lane(k);
        }
        if late {
            return Err(Stop);
        }
        let rec = if store { &mut seg.write } else { &mut seg.read };
        for (k, r) in rec.iter_mut().enumerate() {
            *r = (*r).max(lane(k));
        }
        Ok(())
    }
}

/// The register slots some thread can read before writing them: a path
/// from the entry reaches a read with no unguarded write to the slot
/// before it. Every other register is written by a thread before it reads
/// it, so the engine zeroes only these per warp.
pub(super) fn read_before_write(ops: &[MicroInst], regs: usize, slots: usize) -> Vec<Slot> {
    let n = ops.len();
    let words = slots.div_ceil(64);
    let has = |set: &[u64], s: Slot| set[s as usize / 64] >> (s % 64) & 1 != 0;
    // Registers written on every path to each instruction; `None` until
    // a path reaches it.
    let mut written: Vec<Option<Vec<u64>>> = vec![None; n];
    let mut work = Vec::new();
    if n > 0 {
        written[0] = Some(vec![0; words]);
        work.push(0);
    }
    while let Some(pc) = work.pop() {
        let i = ops[pc];
        let mut out = written[pc]
            .clone()
            .expect("queued instructions are reached");
        if i.guard == ONE && i.writes() {
            out[i.d as usize / 64] |= 1 << (i.d % 64);
        }
        let succs = match i.op {
            UOp::Bra if i.guard == ONE => [Some(i.imm as usize), None],
            UOp::Bra => [Some(i.imm as usize), Some(pc + 1)],
            UOp::Ret if i.guard == ONE => [None, None],
            _ => [Some(pc + 1), None],
        };
        for s in succs.into_iter().flatten().filter(|&s| s < n) {
            match &mut written[s] {
                Some(set) => {
                    let mut changed = false;
                    for (w, o) in set.iter_mut().zip(&out) {
                        changed |= *w & o != *w;
                        *w &= o;
                    }
                    if changed {
                        work.push(s);
                    }
                }
                none => {
                    *none = Some(out.clone());
                    work.push(s);
                }
            }
        }
    }
    let mut zero = vec![false; slots];
    for (i, set) in ops.iter().zip(&written) {
        let Some(set) = set else { continue };
        for s in [i.guard, i.a, i.b, i.c] {
            if s as usize >= regs && !has(set, s) {
                zero[s as usize] = true;
            }
        }
    }
    (regs..slots)
        .filter(|&s| zero[s])
        .map(|s| s as Slot)
        .collect()
}
