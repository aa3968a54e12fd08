//! Kernel-launch-time value-range analysis (paper §III-B2).
//!
//! For every thread block of a launch, all registers are evaluated over an
//! interval domain with `ctaid` pinned to the block's coordinates and `tid`
//! ranging over `[0, ntid-1]`. Loops reach a fixpoint via widening followed
//! by narrowing passes with branch-guard refinement. Every global load and
//! store then yields a byte range, producing the per-TB read/write sets the
//! thread-block scheduler enforces at run time.
//!
//! Addresses that derive from the *result of another load* carry a taint
//! bit; a tainted address reproduces Algorithm 1's conservative bail-out:
//! the whole kernel is treated as dependent on its predecessor.

use crate::access::{KernelAccess, RangeSet, TbAccess};
use crate::cfg::Cfg;
use crate::error::PtxError;
use crate::interval::Interval;
use crate::isa::*;
use crate::kernel::{ArgValue, Launch};
use crate::par::ParallelConfig;
use std::collections::BTreeMap;

/// Joins applied to a block's in-state before widening kicks in.
const WIDEN_AFTER: u32 = 4;
/// Narrowing passes after the widened fixpoint.
const NARROW_PASSES: usize = 2;
/// Safety cap on worklist pops, per thread block.
const MAX_POPS_FACTOR: usize = 128;
/// Address intervals wider than this are treated as unbounded.
const MAX_ACCESS_SPAN: i128 = 1 << 42;
/// Minimum 1-D grid size before the affine fast path is worth attempting
/// (below this, the anchor/sample/certificate overhead exceeds the saving,
/// and the sample set would not be meaningfully sparser than the grid).
const AFFINE_MIN_TBS: u32 = 24;

/// An abstract register value: an interval plus a "derived from a loaded
/// value" taint bit, offset by a coefficient in `%ctaid.x`. For thread
/// block `x` the value lies in `coef·x + iv`. The coefficient is nonzero
/// only in the affine law's translation certificate ([`Env::ctaid_sym`]);
/// every per-TB, group and union-check run keeps it 0, where a value is
/// just its interval. It fits in the struct's padding, so a value is no
/// larger than its interval and taint alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Possible integer values (offsets from `coef·x` when `coef != 0`).
    pub iv: Interval,
    /// Coefficient in `%ctaid.x`; 0 outside the translation certificate.
    pub coef: i64,
    /// Whether the value (possibly) derives from a memory load.
    pub taint: bool,
}

impl AbsVal {
    /// Unknown, untainted value.
    pub const TOP: AbsVal = AbsVal {
        iv: Interval::TOP,
        coef: 0,
        taint: false,
    };

    /// Unknown value derived from a load.
    pub const TAINTED: AbsVal = AbsVal {
        iv: Interval::TOP,
        coef: 0,
        taint: true,
    };

    /// Exact launch-time-known value.
    pub fn point(v: i128) -> Self {
        AbsVal {
            iv: Interval::point(v),
            coef: 0,
            taint: false,
        }
    }

    /// An interval-only value with the given taint.
    fn of(iv: Interval, taint: bool) -> Self {
        AbsVal { iv, coef: 0, taint }
    }

    /// The value as a plain interval over every block `x` in `span`
    /// (the identity when `coef` is 0).
    fn collapse(&self, span: &Interval) -> AbsVal {
        if self.coef == 0 {
            return *self;
        }
        let iv = self.iv.add(&Interval::point(self.coef as i128).mul(span));
        AbsVal::of(iv, self.taint)
    }

    /// Join (hull, or widening) of two values. Unequal coefficients
    /// collapse both sides over `span` first.
    fn join(&self, o: &AbsVal, span: &Interval, widen: bool) -> AbsVal {
        if self.coef == o.coef {
            self.join_aligned(o, widen)
        } else {
            self.collapse(span).join_aligned(&o.collapse(span), widen)
        }
    }

    /// [`AbsVal::join`] of two values with equal coefficients.
    fn join_aligned(&self, o: &AbsVal, widen: bool) -> AbsVal {
        AbsVal {
            iv: if widen {
                self.iv.widen(&o.iv)
            } else {
                self.iv.hull(&o.iv)
            },
            coef: self.coef,
            taint: self.taint || o.taint,
        }
    }

    /// An interval operation on the collapsed operands; the result carries
    /// no coefficient.
    fn binop(
        f: impl Fn(&Interval, &Interval) -> Interval,
        a: &AbsVal,
        b: &AbsVal,
        span: &Interval,
    ) -> AbsVal {
        let (a, b) = (a.collapse(span), b.collapse(span));
        AbsVal::of(f(&a.iv, &b.iv), a.taint || b.taint)
    }

    /// `a + b`: coefficients add with checked arithmetic, collapsing on
    /// overflow.
    fn add(a: &AbsVal, b: &AbsVal, span: &Interval) -> AbsVal {
        match a.coef.checked_add(b.coef) {
            Some(coef) => AbsVal {
                iv: a.iv.add(&b.iv),
                coef,
                taint: a.taint || b.taint,
            },
            None => AbsVal::binop(Interval::add, a, b, span),
        }
    }

    /// `a - b`: coefficients subtract with checked arithmetic, collapsing
    /// on overflow.
    fn sub(a: &AbsVal, b: &AbsVal, span: &Interval) -> AbsVal {
        match a.coef.checked_sub(b.coef) {
            Some(coef) => AbsVal {
                iv: a.iv.sub(&b.iv),
                coef,
                taint: a.taint || b.taint,
            },
            None => AbsVal::binop(Interval::sub, a, b, span),
        }
    }

    /// `a * b`: a coefficient survives multiplication by a constant.
    fn mul(a: &AbsVal, b: &AbsVal, span: &Interval) -> AbsVal {
        let scaled = |v: &AbsVal, k: &AbsVal| {
            let k_val = k.iv.as_point().filter(|_| k.coef == 0)?;
            let coef = v.coef.checked_mul(i64::try_from(k_val).ok()?)?;
            Some(AbsVal {
                iv: v.iv.mul(&k.iv),
                coef,
                taint: v.taint || k.taint,
            })
        };
        if a.coef == 0 && b.coef == 0 {
            return AbsVal::binop(Interval::mul, a, b, span);
        }
        scaled(a, b)
            .or_else(|| scaled(b, a))
            .unwrap_or_else(|| AbsVal::binop(Interval::mul, a, b, span))
    }
}

/// Most recent `setp` feeding a predicate register, used to refine operand
/// intervals along branch edges. Invalidated when any referenced register
/// is overwritten.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PredDef {
    cmp: CmpOp,
    a: Operand,
    b: Operand,
}

#[derive(Debug, PartialEq)]
struct AbsState {
    r32: Vec<AbsVal>,
    r64: Vec<AbsVal>,
    f32_taint: Vec<bool>,
    pred: Vec<AbsVal>,
    pred_defs: Vec<Option<PredDef>>,
}

/// By hand, since a derived `clone_from` would allocate: copying into a
/// state of the same register counts reuses its buffers.
impl Clone for AbsState {
    fn clone(&self) -> Self {
        AbsState {
            r32: self.r32.clone(),
            r64: self.r64.clone(),
            f32_taint: self.f32_taint.clone(),
            pred: self.pred.clone(),
            pred_defs: self.pred_defs.clone(),
        }
    }

    fn clone_from(&mut self, o: &Self) {
        self.r32.clone_from(&o.r32);
        self.r64.clone_from(&o.r64);
        self.f32_taint.clone_from(&o.f32_taint);
        self.pred.clone_from(&o.pred);
        self.pred_defs.clone_from(&o.pred_defs);
    }
}

impl AbsState {
    fn new(counts: [usize; 4]) -> Self {
        AbsState {
            r32: vec![AbsVal::TOP; counts[0]],
            r64: vec![AbsVal::TOP; counts[1]],
            f32_taint: vec![false; counts[2]],
            pred: vec![AbsVal::TOP; counts[3]],
            pred_defs: vec![None; counts[3]],
        }
    }

    /// Joins `other` into `self`; returns whether anything changed.
    /// Coefficients that disagree collapse over the span `env.bx`. Only the
    /// translation certificate carries any, so every other run joins the
    /// intervals alone.
    fn join(&mut self, other: &AbsState, widen: bool, env: &Env) -> bool {
        if env.ctaid_sym {
            self.join_with(other, |a, b| a.join(b, &env.bx, widen))
        } else {
            self.join_with(other, |a, b| a.join_aligned(b, widen))
        }
    }

    fn join_with(&mut self, other: &AbsState, comb: impl Fn(&AbsVal, &AbsVal) -> AbsVal) -> bool {
        let mut changed = false;
        for (a, b) in self.r32.iter_mut().zip(&other.r32) {
            let n = comb(a, b);
            if n != *a {
                *a = n;
                changed = true;
            }
        }
        for (a, b) in self.r64.iter_mut().zip(&other.r64) {
            let n = comb(a, b);
            if n != *a {
                *a = n;
                changed = true;
            }
        }
        for (a, b) in self.f32_taint.iter_mut().zip(&other.f32_taint) {
            if *b && !*a {
                *a = true;
                changed = true;
            }
        }
        for (a, b) in self.pred.iter_mut().zip(&other.pred) {
            let n = comb(a, b);
            if n != *a {
                *a = n;
                changed = true;
            }
        }
        for (a, b) in self.pred_defs.iter_mut().zip(&other.pred_defs) {
            if *a != *b && a.is_some() {
                *a = None;
                changed = true;
            }
        }
        changed
    }

    /// Back to the entry state of [`AbsState::new`], in place.
    fn reset(&mut self) {
        self.r32.fill(AbsVal::TOP);
        self.r64.fill(AbsVal::TOP);
        self.f32_taint.fill(false);
        self.pred.fill(AbsVal::TOP);
        self.pred_defs.fill(None);
    }

    /// The value slot of an integer or predicate register.
    fn slot_mut(&mut self, r: Reg) -> &mut AbsVal {
        match r.class {
            RegClass::R32 => &mut self.r32[r.idx as usize],
            RegClass::R64 => &mut self.r64[r.idx as usize],
            RegClass::Pred => &mut self.pred[r.idx as usize],
            RegClass::F32 => unreachable!("refinement writes no float register"),
        }
    }

    fn get(&self, r: Reg) -> AbsVal {
        match r.class {
            RegClass::R32 => self.r32[r.idx as usize],
            RegClass::R64 => self.r64[r.idx as usize],
            RegClass::F32 => AbsVal::of(Interval::TOP, self.f32_taint[r.idx as usize]),
            RegClass::Pred => self.pred[r.idx as usize],
        }
    }

    /// Writes `v` to `r`; a `weak` (guarded) write joins with the old value.
    fn set(&mut self, r: Reg, v: AbsVal, weak: bool, span: &Interval) {
        // Any write invalidates predicate definitions that mention `r`.
        for d in self.pred_defs.iter_mut() {
            if let Some(def) = d {
                let mentions = |o: &Operand| matches!(o, Operand::Reg(x) if *x == r);
                if mentions(&def.a) || mentions(&def.b) {
                    *d = None;
                }
            }
        }
        let slot = match r.class {
            RegClass::R32 => &mut self.r32[r.idx as usize],
            RegClass::R64 => &mut self.r64[r.idx as usize],
            RegClass::Pred => {
                self.pred_defs[r.idx as usize] = None;
                &mut self.pred[r.idx as usize]
            }
            RegClass::F32 => {
                let t = if weak {
                    self.f32_taint[r.idx as usize] || v.taint
                } else {
                    v.taint
                };
                self.f32_taint[r.idx as usize] = t;
                return;
            }
        };
        *slot = if weak { slot.join(&v, span, false) } else { v };
    }
}

/// Launch-time environment for one thread block — or, for the coarse
/// group-level analysis and the affine law's certificates, for a *range*
/// of thread blocks: `bx`/`by` are intervals, a point interval for the
/// precise per-TB analysis and a span covering several blocks otherwise.
#[derive(Debug, Clone, Copy)]
struct Env<'a> {
    launch: &'a Launch,
    bx: Interval,
    by: Interval,
    /// Whether `%ctaid.x` enters as the symbol `1·x` (the translation
    /// certificate) instead of as the interval `bx`. `bx` is then the span
    /// `x` ranges over, which a collapsing value is hulled across.
    ctaid_sym: bool,
}

impl Env<'_> {
    /// Environment of one thread block, `ctaid` pinned to its coordinates.
    fn block(launch: &Launch, tb: u32) -> Env<'_> {
        let (bx, by) = launch.block_coords(tb);
        Env {
            launch,
            bx: Interval::point(bx as i128),
            by: Interval::point(by as i128),
            ctaid_sym: false,
        }
    }

    fn special(&self, s: Special) -> AbsVal {
        let b = self.launch.block;
        let g = self.launch.grid;
        let iv = match s {
            Special::TidX => Interval::new(0, b.x as i128 - 1),
            Special::TidY => Interval::new(0, b.y as i128 - 1),
            Special::NtidX => Interval::point(b.x as i128),
            Special::NtidY => Interval::point(b.y as i128),
            Special::CtaidX if self.ctaid_sym => {
                return AbsVal {
                    iv: Interval::point(0),
                    coef: 1,
                    taint: false,
                }
            }
            Special::CtaidX => self.bx,
            Special::CtaidY => self.by,
            Special::NctaidX => Interval::point(g.x as i128),
            Special::NctaidY => Interval::point(g.y as i128),
        };
        AbsVal::of(iv, false)
    }

    fn eval(&self, st: &AbsState, o: &Operand) -> AbsVal {
        match o {
            Operand::Reg(r) => st.get(*r),
            Operand::ImmI(v) => AbsVal::point(*v as i128),
            Operand::ImmF(_) => AbsVal::TOP,
            Operand::Special(s) => self.special(*s),
        }
    }
}

fn transfer(env: &Env, st: &mut AbsState, inst: &Inst) {
    let weak = inst.guard.is_some();
    let span = &env.bx;
    let ev = |o: &Operand| env.eval(st, o);
    let float = |taint: bool| AbsVal::of(Interval::TOP, taint);
    let (dst, v) = match &inst.op {
        Op::Mov { dst, src } | Op::Cvt { dst, src } => (*dst, ev(src)),
        Op::Int { op, dst, a, b, .. } => {
            let (x, y) = (ev(a), ev(b));
            let v = match op {
                IntOp::Add => AbsVal::add(&x, &y, span),
                IntOp::Sub => AbsVal::sub(&x, &y, span),
                IntOp::Mul => AbsVal::mul(&x, &y, span),
                IntOp::Div => AbsVal::binop(Interval::div, &x, &y, span),
                IntOp::Rem => AbsVal::binop(Interval::rem, &x, &y, span),
                IntOp::Min => AbsVal::binop(Interval::min_op, &x, &y, span),
                IntOp::Max => AbsVal::binop(Interval::max_op, &x, &y, span),
                IntOp::And => AbsVal::binop(Interval::and, &x, &y, span),
                IntOp::Or => AbsVal::binop(Interval::or, &x, &y, span),
                IntOp::Xor => AbsVal::binop(Interval::xor, &x, &y, span),
                IntOp::Shl => AbsVal::binop(Interval::shl, &x, &y, span),
                IntOp::Shr => AbsVal::binop(Interval::shr, &x, &y, span),
            };
            (*dst, v)
        }
        Op::Mad { dst, a, b, c, .. } | Op::MadWide { dst, a, b, c } => {
            let prod = AbsVal::mul(&ev(a), &ev(b), span);
            (*dst, AbsVal::add(&prod, &ev(c), span))
        }
        Op::MulWide { dst, a, b } => (*dst, AbsVal::mul(&ev(a), &ev(b), span)),
        Op::Float { dst, a, b, .. } => (*dst, float(ev(a).taint || ev(b).taint)),
        Op::Fma { dst, a, b, c } => (*dst, float(ev(a).taint || ev(b).taint || ev(c).taint)),
        Op::Sqrt { dst, a } => (*dst, float(ev(a).taint)),
        Op::Setp { dst, a, b, .. } | Op::SetpF { dst, a, b, .. } => (
            *dst,
            AbsVal::of(Interval::new(0, 1), ev(a).taint || ev(b).taint),
        ),
        Op::Selp { dst, a, b, .. } => (*dst, ev(a).join(&ev(b), span, false)),
        Op::Ld { dst, .. } => (*dst, AbsVal::TAINTED),
        Op::LdParam { dst, param } => {
            let v = match env.launch.args[*param as usize] {
                ArgValue::U32(v) => AbsVal::point(v as i128),
                ArgValue::U64(v) => AbsVal::point(v as i128),
                ArgValue::Ptr(v) => AbsVal::point(v as i128),
                ArgValue::F32(_) => AbsVal::TOP,
            };
            (*dst, v)
        }
        Op::St { .. } | Op::Bra { .. } | Op::Bar | Op::Ret => return,
    };
    st.set(dst, v, weak, span);
    if let Op::Setp { cmp, dst, a, b, .. } = &inst.op {
        if !weak && !v.taint {
            st.pred_defs[dst.idx as usize] = Some(PredDef {
                cmp: *cmp,
                a: *a,
                b: *b,
            });
        }
    }
}

/// The slots [`refine_by_pred`] overwrote, with their previous values in
/// write order: refining in place and restoring afterwards reads a refined
/// state without copying it.
struct Undo {
    len: usize,
    saved: [(Reg, AbsVal); 3],
}

impl Undo {
    fn write(&mut self, st: &mut AbsState, r: Reg, v: AbsVal) {
        let slot = st.slot_mut(r);
        self.saved[self.len] = (r, *slot);
        self.len += 1;
        *slot = v;
    }

    /// Puts back every overwritten slot, latest first.
    fn restore(&self, st: &mut AbsState) {
        for &(r, v) in self.saved[..self.len].iter().rev() {
            *st.slot_mut(r) = v;
        }
    }
}

/// Refines `st` in place assuming predicate `pred` evaluates to `holds`,
/// returning how to undo it. Refined operands collapse to plain intervals
/// over the span first. Refinement only shrinks the set of possible
/// values, so it invalidates no predicate definition.
fn refine_by_pred(env: &Env, st: &mut AbsState, pred: Reg, holds: bool) -> Undo {
    let mut undo = Undo {
        len: 0,
        saved: [(pred, AbsVal::TOP); 3],
    };
    // The predicate value itself is now known.
    let pv = AbsVal::of(
        Interval::point(holds as i128),
        st.pred[pred.idx as usize].taint,
    );
    undo.write(st, Reg::pred(pred.idx), pv);
    let Some(def) = st.pred_defs[pred.idx as usize] else {
        return undo;
    };
    let cmp = if holds { def.cmp } else { def.cmp.negated() };
    let bv = env.eval(st, &def.b).collapse(&env.bx);
    let av = env.eval(st, &def.a).collapse(&env.bx);
    let int = |o: Operand| match o {
        Operand::Reg(r) if matches!(r.class, RegClass::R32 | RegClass::R64) => Some(r),
        _ => None,
    };
    if let Some(r) = int(def.a) {
        undo.write(st, r, AbsVal::of(av.iv.refine(cmp, &bv.iv), av.taint));
    }
    if let Some(r) = int(def.b) {
        undo.write(
            st,
            r,
            AbsVal::of(bv.iv.refine(cmp.swapped(), &av.iv), bv.taint),
        );
    }
    undo
}

/// [`refine_by_pred`] along a CFG edge when the edge is a guarded
/// branch's (`taken` is its polarity); `None` leaves `st` untouched.
fn refine_edge(
    env: &Env,
    st: &mut AbsState,
    taken: Option<bool>,
    guard: Option<Guard>,
) -> Option<Undo> {
    let (taken, g) = (taken?, guard?);
    // Branch taken <=> guard passed <=> pred == !negated.
    Some(refine_by_pred(env, st, g.pred, taken != g.negated))
}

/// Why a launch could not be statically analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonStaticReason {
    /// An address derives from a loaded value (Algorithm 1 bail-out).
    TaintedAddress,
    /// The fixpoint did not converge within the iteration budget.
    NoConvergence,
}

impl std::fmt::Display for NonStaticReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonStaticReason::TaintedAddress => f.write_str("address derives from a loaded value"),
            NonStaticReason::NoConvergence => f.write_str("value-range fixpoint did not converge"),
        }
    }
}

/// Why a *budgeted* analysis stopped before producing per-TB sets.
///
/// Distinguishes running out of the caller's fuel budget (the analysis
/// could have succeeded with more time — retrying at a coarser granularity
/// is worthwhile) from a genuine non-static verdict (no amount of fuel
/// helps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisCut {
    /// The caller-supplied fuel budget was exhausted mid-analysis.
    OutOfFuel,
    /// The launch is non-static; more fuel would not change the verdict.
    NonStatic(NonStaticReason),
}

impl std::fmt::Display for AnalysisCut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisCut::OutOfFuel => f.write_str("analysis fuel budget exhausted"),
            AnalysisCut::NonStatic(r) => r.fmt(f),
        }
    }
}

/// How a launch analysis was carried out — how many thread blocks were
/// fully interpreted versus synthesized by the affine fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbsintStats {
    /// Thread blocks run through the full fixpoint interpretation
    /// (anchors, boundary blocks, and verification samples included).
    pub tbs_interpreted: u32,
    /// Thread blocks whose access sets were synthesized by translating the
    /// affine model instead of interpreting them.
    pub tbs_synthesized: u32,
    /// Whether the affine hypothesis was attempted for this launch
    /// (1-D grid, enough blocks, fast path enabled).
    pub affine_attempted: bool,
    /// Whether the affine hypothesis survived sampling and one of the span
    /// certificates (union check or translation certificate);
    /// `attempted && !accepted` means the launch fell back to full per-TB
    /// interpretation.
    pub affine_accepted: bool,
}

/// The affine per-TB hypothesis: thread block `i`'s access ranges are the
/// ranges of block 1 translated by `(i - 1) * delta`, with an independent
/// delta per range (different arrays may advance at different strides).
struct AffineModel {
    base_reads: Vec<(u64, u64)>,
    read_deltas: Vec<i128>,
    base_writes: Vec<(u64, u64)>,
    write_deltas: Vec<i128>,
}

/// Per-range translation distances from `a` to `b`, or `None` when the two
/// sets are not translates of each other (different range counts or
/// lengths).
fn range_deltas(a: &RangeSet, b: &RangeSet) -> Option<Vec<i128>> {
    let (ar, br) = (a.ranges(), b.ranges());
    if ar.len() != br.len() {
        return None;
    }
    ar.iter()
        .zip(br)
        .map(|(&(s1, e1), &(s2, e2))| {
            if e1 - s1 == e2 - s2 {
                Some(s2 as i128 - s1 as i128)
            } else {
                None
            }
        })
        .collect()
}

/// Translates each `base` range by `k` times its delta; `None` on address
/// overflow (which rejects the affine hypothesis).
fn translate_ranges(base: &[(u64, u64)], deltas: &[i128], k: i128) -> Option<RangeSet> {
    let mut out = Vec::with_capacity(base.len());
    for (&(s, e), &d) in base.iter().zip(deltas) {
        let off = d.checked_mul(k)?;
        let ns = (s as i128).checked_add(off)?;
        let ne = (e as i128).checked_add(off)?;
        if ns < 0 || ne > u64::MAX as i128 {
            return None;
        }
        out.push((ns as u64, ne as u64));
    }
    Some(RangeSet::from_unsorted(out))
}

impl AffineModel {
    /// Fits the model to three consecutive anchor blocks: the 1→2 deltas
    /// must reproduce block 3 exactly, otherwise there is no single affine
    /// law and the hypothesis is rejected.
    fn derive(t1: &TbAccess, t2: &TbAccess, t3: &TbAccess) -> Option<Self> {
        let read_deltas = range_deltas(&t1.reads, &t2.reads)?;
        if range_deltas(&t2.reads, &t3.reads)? != read_deltas {
            return None;
        }
        let write_deltas = range_deltas(&t1.writes, &t2.writes)?;
        if range_deltas(&t2.writes, &t3.writes)? != write_deltas {
            return None;
        }
        Some(AffineModel {
            base_reads: t1.reads.ranges().to_vec(),
            read_deltas,
            base_writes: t1.writes.ranges().to_vec(),
            write_deltas,
        })
    }

    /// Predicted access sets of thread block `tb`.
    fn predict(&self, tb: u32) -> Option<TbAccess> {
        let k = tb as i128 - 1;
        Some(TbAccess {
            reads: translate_ranges(&self.base_reads, &self.read_deltas, k)?,
            writes: translate_ranges(&self.base_writes, &self.write_deltas, k)?,
        })
    }
}

/// Interior thread blocks whose interpreted sets must match the model
/// exactly before it is trusted: powers of two plus the quartile blocks,
/// all within `[4, n-3]` (anchors and boundary blocks are interpreted
/// unconditionally).
fn affine_check_tbs(n: u32) -> Vec<u32> {
    let mut v = vec![n / 4, n / 2, 3 * (n / 4)];
    let mut p = 4u32;
    while p < n - 2 {
        v.push(p);
        p = p.saturating_mul(2);
    }
    v.retain(|&i| i >= 4 && i + 3 <= n);
    v.sort_unstable();
    v.dedup();
    v
}

enum AffineOutcome {
    /// Per-TB sets for all `n` blocks (interpreted + synthesized).
    Accepted(Vec<TbAccess>),
    /// Hypothesis failed — fall back to full interpretation.
    Rejected,
    NonStatic,
    OutOfFuel,
}

/// Interprets one thread block, memoizing the result so the full-fallback
/// path can reuse anchors and samples already paid for.
fn interp_tb_memo(
    launch: &Launch,
    cfg: &Cfg,
    ws: &mut Workspace,
    tb: u32,
    fuel: &mut u64,
    memo: &mut BTreeMap<u32, TbAccess>,
) -> Result<TbAccess, AnalysisCut> {
    if let Some(a) = memo.get(&tb) {
        return Ok(a.clone());
    }
    let acc = analyze_tb(&Env::block(launch, tb), cfg, ws, fuel)?;
    memo.insert(tb, acc.clone());
    Ok(acc)
}

/// Attempts the affine fast path for a 1-D launch of `n >=
/// [`AFFINE_MIN_TBS`] blocks.
///
/// Protocol: interpret anchors {1,2,3} and boundary blocks {0, n-2, n-1}
/// (boundary blocks commonly deviate — clamped stencil edges); fit
/// per-range deltas from the anchors; interpret a logarithmic sample of
/// interior blocks and require bit-exact agreement with the prediction;
/// finally certify the interior blocks `[1, n-2]` by one of two span
/// analyses, which catch kernels special-casing unsampled blocks because
/// a span analysis cannot prune their accesses:
///
/// * the *union check* runs with `ctaid.x = [1, n-2]` and requires its
///   (sound, over-approximate) access sets to lie inside the union of the
///   interior blocks' sets;
/// * when that fails — a law whose blocks leave gaps between their ranges,
///   which the interval hull covers — the *translation certificate* runs
///   the same fixpoint with `ctaid.x` as a symbol, values carrying a
///   coefficient in it, and requires every interior block `x` to have
///   each access, placed at `x`, inside its own interpreted or synthesized
///   sets. That is a per-TB guarantee.
///
/// The residual gap applies to union-checked launches only: per-TB
/// *attribution* within the certified union (two unsampled blocks swapping
/// their slices would pass); the runtime soundness guard backstops exactly
/// that class.
fn try_affine(
    launch: &Launch,
    cfg: &Cfg,
    ws: &mut Workspace,
    n: u32,
    fuel: &mut u64,
    memo: &mut BTreeMap<u32, TbAccess>,
) -> AffineOutcome {
    let interp =
        |tb: u32, ws: &mut Workspace, fuel: &mut u64, memo: &mut BTreeMap<u32, TbAccess>| {
            match interp_tb_memo(launch, cfg, ws, tb, fuel, memo) {
                Ok(acc) => Ok(acc),
                Err(AnalysisCut::OutOfFuel) => Err(AffineOutcome::OutOfFuel),
                Err(AnalysisCut::NonStatic(_)) => Err(AffineOutcome::NonStatic),
            }
        };
    for tb in [0, 1, 2, 3, n - 2, n - 1] {
        if let Err(out) = interp(tb, ws, fuel, memo) {
            return out;
        }
    }
    let model = match AffineModel::derive(&memo[&1], &memo[&2], &memo[&3]) {
        Some(m) => m,
        None => return AffineOutcome::Rejected,
    };
    for tb in affine_check_tbs(n) {
        let got = match interp(tb, ws, fuel, memo) {
            Ok(acc) => acc,
            Err(out) => return out,
        };
        match model.predict(tb) {
            Some(want) if want == got => {}
            _ => return AffineOutcome::Rejected,
        }
    }
    // Materialize all blocks: memoized where interpreted, synthesized
    // elsewhere (sampled blocks are bit-equal either way).
    let mut per_tb = Vec::with_capacity(n as usize);
    for tb in 0..n {
        match memo.get(&tb) {
            Some(acc) => per_tb.push(acc.clone()),
            None => match model.predict(tb) {
                Some(acc) => per_tb.push(acc),
                None => return AffineOutcome::Rejected,
            },
        }
    }
    // Union check over the interior blocks.
    let env = Env {
        launch,
        bx: Interval::new(1, n as i128 - 2),
        by: Interval::point(0),
        ctaid_sym: false,
    };
    let u_span = match analyze_tb(&env, cfg, ws, fuel) {
        Ok(acc) => acc,
        Err(AnalysisCut::OutOfFuel) => return AffineOutcome::OutOfFuel,
        // Span hulls can lose convergence where per-TB points do not;
        // that discredits the certificate, not the kernel.
        Err(AnalysisCut::NonStatic(_)) => return AffineOutcome::Rejected,
    };
    let interior = &per_tb[1..=(n as usize - 2)];
    let union_reads = RangeSet::from_unsorted(
        interior
            .iter()
            .flat_map(|t| t.reads.ranges().iter().copied())
            .collect(),
    );
    let union_writes = RangeSet::from_unsorted(
        interior
            .iter()
            .flat_map(|t| t.writes.ranges().iter().copied())
            .collect(),
    );
    if u_span.reads.is_subset_of(&union_reads) && u_span.writes.is_subset_of(&union_writes) {
        return AffineOutcome::Accepted(per_tb);
    }
    // Translation certificate: the same span analysis with `%ctaid.x`
    // symbolic, so each access is known as a function of the block.
    let env = Env {
        ctaid_sym: true,
        ..env
    };
    let mut accesses = Vec::new();
    match analyze_span(&env, cfg, ws, fuel, |a| accesses.push(a)) {
        Ok(()) => {}
        Err(AnalysisCut::OutOfFuel) => return AffineOutcome::OutOfFuel,
        Err(AnalysisCut::NonStatic(_)) => return AffineOutcome::Rejected,
    }
    if interior_covers(interior, &accesses) {
        AffineOutcome::Accepted(per_tb)
    } else {
        AffineOutcome::Rejected
    }
}

/// Whether every interior block `x` (`interior[x - 1]`) has each access of
/// the translation certificate, placed at `x`, inside its own sets.
fn interior_covers(interior: &[TbAccess], accesses: &[SpanAccess]) -> bool {
    interior.iter().zip(1u32..).all(|(t, x)| {
        accesses.iter().all(|a| {
            let shift = a.coef as i128 * x as i128;
            let (s, e) = (a.lo + shift, a.hi + shift);
            let set = if a.store { &t.writes } else { &t.reads };
            s >= 0 && e <= u64::MAX as i128 && set.covers(&[(s as u64, e as u64)])
        })
    })
}

/// Analyzes every thread block of `launch`, producing per-TB read/write
/// sets, or the conservative non-static verdict.
///
/// This is the paper's kernel-launch-time just-in-time analysis: it runs
/// when the kernel command is processed (masked by pre-launching) and its
/// output feeds the bipartite dependency-graph builder.
///
/// # Examples
///
/// ```
/// # use bm_ptx::{parser::parse_kernel, kernel::*, absint::analyze_launch};
/// # use std::sync::Arc;
/// let k = Arc::new(parse_kernel(
///     ".entry w(.param .u64 A) {
///        ld.param.u64 %rd1, [A];
///        mov.u32 %r1, %tid.x;
///        mad.wide.u32 %rd2, %r1, 4, %rd1;
///        st.global.f32 [%rd2], 0f00000000;
///        ret;
///      }",
/// ).unwrap());
/// let launch = Launch::new(k, Dim3::x(2), Dim3::x(32), vec![ArgValue::Ptr(0x1000)]);
/// let acc = analyze_launch(&launch);
/// assert!(!acc.non_static);
/// assert_eq!(acc.per_tb[0].writes.ranges(), &[(0x1000, 0x1000 + 128)]);
/// ```
pub fn analyze_launch(launch: &Launch) -> KernelAccess {
    try_analyze_launch(launch)
        .unwrap_or_else(|e| panic!("launch-time analysis rejected the launch: {e}"))
}

/// Fallible variant of [`analyze_launch`]: validates the launch structure
/// first and returns [`PtxError::BadLaunch`] instead of analyzing a launch
/// whose argument list cannot bind to the kernel's parameters.
///
/// Note the distinction from the `non_static` verdict: a kernel whose
/// addresses cannot be bounded statically is a *valid* launch with a
/// conservative analysis result, while a malformed launch is an error.
///
/// # Errors
///
/// [`PtxError::BadLaunch`] for argument-arity mismatches or zero-thread
/// blocks.
pub fn try_analyze_launch(launch: &Launch) -> Result<KernelAccess, PtxError> {
    crate::error::validate_launch(launch)?;
    Ok(analyze_launch_unchecked(launch))
}

/// Budgeted variant of [`try_analyze_launch`]: every worklist pop of the
/// fixpoint iteration consumes one unit of `fuel`, shared across all thread
/// blocks of the launch. `Ok(None)` means the budget ran out before the
/// analysis finished — the caller should degrade to the coarse group-level
/// analysis ([`try_analyze_launch_grouped`]) or a whole-kernel barrier
/// rather than blocking the launch path.
///
/// # Errors
///
/// [`PtxError::BadLaunch`] for structurally invalid launches, exactly as
/// [`try_analyze_launch`].
pub fn try_analyze_launch_fueled(
    launch: &Launch,
    fuel: &mut u64,
) -> Result<Option<KernelAccess>, PtxError> {
    crate::error::validate_launch(launch)?;
    Ok(analyze_launch_fueled_unchecked(launch, fuel))
}

/// [`try_analyze_launch_fueled`] under an explicit [`ParallelConfig`]:
/// when `par.fast_paths` is set, the affine memoization fast path may
/// synthesize most per-TB sets from a verified model instead of
/// interpreting every block.
///
/// `ParallelConfig::reference()` interprets every block. Both
/// configurations produce identical `KernelAccess` values for launches that
/// complete within budget; under *fuel pressure* they may reach different
/// degradation outcomes, because the fast path spends a different amount
/// of fuel.
///
/// # Errors
///
/// [`PtxError::BadLaunch`] for structurally invalid launches;
/// [`PtxError::Cancelled`] when `par.cancel` has fired before the launch
/// is analyzed (the check sits at the phase boundary, so a token that
/// never fires leaves the analysis bit-identical).
pub fn try_analyze_launch_fueled_par(
    launch: &Launch,
    fuel: &mut u64,
    par: &ParallelConfig,
) -> Result<Option<(KernelAccess, AbsintStats)>, PtxError> {
    crate::error::validate_launch(launch)?;
    if let Some(cause) = par.cancel_fired() {
        return Err(PtxError::Cancelled(cause));
    }
    Ok(analyze_launch_fueled_par_unchecked(launch, fuel, par))
}

/// Coarse group-level analysis: the grid is partitioned into at most
/// `groups` contiguous block ranges and each range is analyzed *once* with
/// `ctaid` spanning the whole range. Every member TB inherits the group's
/// (over-approximate) access sets, so the result is sound but yields a
/// pattern-level graph (group-to-group edges) instead of a per-TB graph —
/// the second rung of the degradation ladder, costing `groups` abstract
/// runs instead of `num_blocks`.
///
/// `Ok(None)` again means even the coarse analysis exhausted `fuel`.
///
/// # Errors
///
/// [`PtxError::BadLaunch`] for structurally invalid launches.
pub fn try_analyze_launch_grouped(
    launch: &Launch,
    groups: u32,
    fuel: &mut u64,
) -> Result<Option<KernelAccess>, PtxError> {
    crate::error::validate_launch(launch)?;
    Ok(analyze_launch_grouped_unchecked(
        launch,
        groups.max(1),
        fuel,
    ))
}

fn analyze_launch_unchecked(launch: &Launch) -> KernelAccess {
    let mut fuel = u64::MAX;
    // Fast paths on: `analyze_launch` is the convenience entry point, so
    // it gets the memoized pipeline (and the soundness suite exercises the
    // affine path through it).
    match analyze_launch_fueled_par_unchecked(launch, &mut fuel, &ParallelConfig::serial()) {
        Some((acc, _)) => acc,
        // Unreachable with unbounded fuel; fall back conservatively.
        None => conservative_access(launch.num_blocks()),
    }
}

/// The all-TBs-default, `non_static` verdict: usable by every consumer but
/// carrying no information — forces whole-kernel barrier semantics.
fn conservative_access(n_tbs: u32) -> KernelAccess {
    KernelAccess::from_per_tb(vec![TbAccess::default(); n_tbs as usize], true)
}

fn analyze_launch_fueled_unchecked(launch: &Launch, fuel: &mut u64) -> Option<KernelAccess> {
    analyze_launch_fueled_par_unchecked(launch, fuel, &ParallelConfig::serial()).map(|(acc, _)| acc)
}

fn analyze_launch_fueled_par_unchecked(
    launch: &Launch,
    fuel: &mut u64,
    par: &ParallelConfig,
) -> Option<(KernelAccess, AbsintStats)> {
    let cfg = Cfg::build(&launch.kernel);
    let mut ws = Workspace::new(&cfg, max_reg_counts(&launch.kernel.body));
    let n = launch.num_blocks();
    let mut stats = AbsintStats::default();
    // Anchors/samples interpreted by a rejected affine attempt are kept so
    // the fallback does not pay for them twice.
    let mut memo: BTreeMap<u32, TbAccess> = BTreeMap::new();

    if par.fast_paths && launch.grid.y == 1 && n >= AFFINE_MIN_TBS {
        stats.affine_attempted = true;
        match try_affine(launch, &cfg, &mut ws, n, fuel, &mut memo) {
            AffineOutcome::Accepted(per_tb) => {
                stats.affine_accepted = true;
                stats.tbs_interpreted = memo.len() as u32;
                stats.tbs_synthesized = n - memo.len() as u32;
                return Some((KernelAccess::from_per_tb(per_tb, false), stats));
            }
            AffineOutcome::NonStatic => {
                stats.tbs_interpreted = memo.len() as u32;
                return Some((conservative_access(n), stats));
            }
            AffineOutcome::OutOfFuel => return None,
            AffineOutcome::Rejected => {}
        }
    }

    stats.tbs_interpreted = n;
    let mut per_tb = Vec::with_capacity(n as usize);
    for tb in 0..n {
        if let Some(acc) = memo.get(&tb) {
            per_tb.push(acc.clone());
            continue;
        }
        match analyze_tb(&Env::block(launch, tb), &cfg, &mut ws, fuel) {
            Ok(acc) => per_tb.push(acc),
            Err(AnalysisCut::OutOfFuel) => return None,
            Err(AnalysisCut::NonStatic(_)) => {
                // Conservative: the kernel is fully dependent on its
                // predecessor; access sets are unusable.
                return Some((conservative_access(n), stats));
            }
        }
    }
    Some((KernelAccess::from_per_tb(per_tb, false), stats))
}

fn analyze_launch_grouped_unchecked(
    launch: &Launch,
    groups: u32,
    fuel: &mut u64,
) -> Option<KernelAccess> {
    let cfg = Cfg::build(&launch.kernel);
    let mut ws = Workspace::new(&cfg, max_reg_counts(&launch.kernel.body));
    let n = launch.num_blocks();
    if n == 0 {
        return Some(KernelAccess::from_per_tb(Vec::new(), false));
    }
    let groups = groups.min(n);
    let group_size = n.div_ceil(groups);
    let mut per_tb = Vec::with_capacity(n as usize);
    let mut lo = 0u32;
    while lo < n {
        let hi = (lo + group_size).min(n) - 1; // inclusive
        let (bx, by) = span_coords(launch, lo, hi);
        let env = Env {
            launch,
            bx,
            by,
            ctaid_sym: false,
        };
        match analyze_tb(&env, &cfg, &mut ws, fuel) {
            Ok(acc) => {
                for _ in lo..=hi {
                    per_tb.push(acc.clone());
                }
            }
            Err(AnalysisCut::OutOfFuel) => return None,
            Err(AnalysisCut::NonStatic(_)) => return Some(conservative_access(n)),
        }
        lo = hi + 1;
    }
    Some(KernelAccess::from_per_tb(per_tb, false))
}

/// `ctaid` intervals covering linear block ids `lo..=hi`. For 2D grids a
/// range spanning several rows widens `ctaid.x` to the full row — a sound
/// over-approximation of the rectangular hull.
fn span_coords(launch: &Launch, lo: u32, hi: u32) -> (Interval, Interval) {
    let (bx_lo, by_lo) = launch.block_coords(lo);
    let (bx_hi, by_hi) = launch.block_coords(hi);
    if by_lo == by_hi {
        (
            Interval::new(bx_lo as i128, bx_hi as i128),
            Interval::point(by_lo as i128),
        )
    } else {
        (
            Interval::new(0, launch.grid.x as i128 - 1),
            Interval::new(by_lo as i128, by_hi as i128),
        )
    }
}

/// Analyzes a single thread block.
///
/// # Errors
///
/// Returns [`NonStaticReason`] if any global access address is tainted or
/// the fixpoint iteration budget is exhausted.
pub fn analyze_block(
    launch: &Launch,
    cfg: &Cfg,
    counts: [usize; 4],
    tb: u32,
) -> Result<TbAccess, NonStaticReason> {
    let mut fuel = u64::MAX;
    let mut ws = Workspace::new(cfg, counts);
    analyze_tb(&Env::block(launch, tb), cfg, &mut ws, &mut fuel).map_err(|cut| match cut {
        AnalysisCut::NonStatic(r) => r,
        // Unreachable with unbounded fuel.
        AnalysisCut::OutOfFuel => NonStaticReason::NoConvergence,
    })
}

/// One global access found by the collection pass: for thread block `x`,
/// the bytes `[lo + coef·x, hi + coef·x)`. `coef` is 0 outside the
/// translation certificate, where the range is absolute.
#[derive(Debug, Clone, Copy)]
struct SpanAccess {
    store: bool,
    coef: i64,
    lo: i128,
    hi: i128,
}

/// [`analyze_span`] collected into per-TB read/write sets.
fn analyze_tb(
    env: &Env,
    cfg: &Cfg,
    ws: &mut Workspace,
    fuel: &mut u64,
) -> Result<TbAccess, AnalysisCut> {
    let mut acc = TbAccess::default();
    analyze_span(env, cfg, ws, fuel, |a| {
        let set = if a.store {
            &mut acc.writes
        } else {
            &mut acc.reads
        };
        set.insert(a.lo as u64, a.hi as u64);
    })?;
    Ok(acc)
}

/// The abstract states of one launch's analysis: every CFG block's in- and
/// out-state and the worklist's bookkeeping. Every span the launch analyses
/// (each thread block, affine certificate and group) reuses it, so a
/// fixpoint step copies states into buffers the workspace already owns
/// instead of allocating.
struct Workspace {
    /// In-state of each CFG block, meaningful where `reached`.
    ins: Vec<AbsState>,
    /// Out-state of each CFG block, meaningful where `reached`: the
    /// fixpoint pops every block it reaches before it ends.
    outs: Vec<AbsState>,
    reached: Vec<bool>,
    join_count: Vec<u32>,
    queued: Vec<bool>,
    work: Vec<usize>,
    /// The collection pass's state after a load it skips (see
    /// [`analyze_span`]).
    skip: AbsState,
    /// Narrowing passes: [`NARROW_PASSES`], or one when the CFG has no
    /// back edge in RPO, since a second pass would repeat the first.
    narrow_passes: usize,
}

impl Workspace {
    fn new(cfg: &Cfg, counts: [usize; 4]) -> Self {
        let nb = cfg.blocks.len();
        let state = AbsState::new(counts);
        Workspace {
            ins: vec![state.clone(); nb],
            outs: vec![state.clone(); nb],
            reached: vec![false; nb],
            join_count: vec![0; nb],
            queued: vec![false; nb],
            work: Vec::with_capacity(nb),
            skip: state,
            narrow_passes: if cfg.has_loop() { NARROW_PASSES } else { 1 },
        }
    }
}

/// What the collection pass makes of one instruction.
enum Collected {
    /// Not a global access.
    Other,
    /// A global access with its byte range.
    Access(SpanAccess),
    /// A global access whose address range is empty: the state (refined
    /// by the access's guard) proves it never executes.
    Never,
}

/// The collection pass's view of `inst` in state `st` (left unchanged):
/// a guarded access's base is read refined by its guard.
fn collect(env: &Env, st: &mut AbsState, inst: &Inst) -> Result<Collected, AnalysisCut> {
    let (Op::Ld {
        space: MemSpace::Global,
        addr,
        ty,
        ..
    }
    | Op::St {
        space: MemSpace::Global,
        addr,
        ty,
        ..
    }) = &inst.op
    else {
        return Ok(Collected::Other);
    };
    let base = match inst.guard {
        Some(g) => {
            let undo = refine_by_pred(env, st, g.pred, !g.negated);
            let base = st.get(addr.base);
            undo.restore(st);
            base
        }
        None => st.get(addr.base),
    };
    if base.taint {
        return Err(AnalysisCut::NonStatic(NonStaticReason::TaintedAddress));
    }
    let offset = Interval::point(addr.offset as i128);
    let range = base.iv.add(&offset);
    // Lowest address over the whole span (`range` itself when the
    // coefficient is 0).
    let lowest = base.collapse(&env.bx).iv.add(&offset).lo();
    let (coef, lo, hi) = if range.is_empty() {
        return Ok(Collected::Never);
    } else if range.is_unbounded() || lowest < 0 || range.hi() - range.lo() > MAX_ACCESS_SPAN {
        // Static but unboundable: cover all of device memory.
        (0, 0, u64::MAX as i128)
    } else {
        (base.coef, range.lo(), range.hi() + ty.bytes() as i128)
    };
    Ok(Collected::Access(SpanAccess {
        store: matches!(inst.op, Op::St { .. }),
        coef,
        lo,
        hi,
    }))
}

/// Collects `insts` from `st`: every access goes to `visit`, and an access
/// that never executes is skipped, transfer included.
fn collect_from(
    env: &Env,
    st: &mut AbsState,
    insts: &[Inst],
    visit: &mut impl FnMut(SpanAccess),
) -> Result<(), AnalysisCut> {
    for inst in insts {
        match collect(env, st, inst)? {
            Collected::Other => {}
            Collected::Access(a) => visit(a),
            Collected::Never => continue,
        }
        transfer(env, st, inst);
    }
    Ok(())
}

/// Fixpoint analysis of one `ctaid` span (a single TB when the env holds
/// point intervals, a block group for the coarse rung, the interior blocks
/// for the affine law's certificates), passing every global access to
/// `visit`. Consumes one unit of `fuel` per worklist pop.
///
/// The states live in `ws`. A refined edge or guarded access refines the
/// source state in place and restores it, so no step copies a state
/// beyond the block it interprets. The last narrowing pass also collects
/// the accesses: it interprets each block from its final in-state in RPO
/// order, as a separate collection pass would.
fn analyze_span(
    env: &Env,
    cfg: &Cfg,
    ws: &mut Workspace,
    fuel: &mut u64,
    mut visit: impl FnMut(SpanAccess),
) -> Result<(), AnalysisCut> {
    let body = &env.launch.kernel.body;
    let nb = cfg.blocks.len();
    if nb == 0 {
        return Ok(());
    }
    ws.ins[0].reset();
    ws.reached.fill(false);
    ws.reached[0] = true;
    ws.join_count.fill(0);
    ws.queued.fill(false);
    ws.queued[0] = true;
    ws.work.clear();
    ws.work.push(0);
    let mut pops = 0usize;
    let max_pops = nb * MAX_POPS_FACTOR;
    while let Some(b) = ws.work.pop() {
        ws.queued[b] = false;
        pops += 1;
        if pops > max_pops {
            return Err(AnalysisCut::NonStatic(NonStaticReason::NoConvergence));
        }
        if *fuel == 0 {
            return Err(AnalysisCut::OutOfFuel);
        }
        *fuel -= 1;
        let block = &cfg.blocks[b];
        let out = &mut ws.outs[b];
        out.clone_from(&ws.ins[b]);
        for inst in &body[block.start..block.end] {
            transfer(env, out, inst);
        }
        let guard = body[block.end - 1].guard;
        for e in &block.succs {
            let undo = refine_edge(env, &mut ws.outs[b], e.taken, guard);
            let src = &ws.outs[b];
            let changed = if ws.reached[e.to] {
                let widen = ws.join_count[e.to] > WIDEN_AFTER;
                ws.ins[e.to].join(src, widen, env)
            } else {
                ws.ins[e.to].clone_from(src);
                ws.reached[e.to] = true;
                true
            };
            if let Some(undo) = undo {
                undo.restore(&mut ws.outs[b]);
            }
            if changed {
                ws.join_count[e.to] += 1;
                if !ws.queued[e.to] {
                    ws.queued[e.to] = true;
                    ws.work.push(e.to);
                }
            }
        }
    }
    // Narrowing: recompute in-states from predecessor outs (with edge
    // refinement) a bounded number of times; this claws back precision the
    // widening gave up, e.g. loop-counter upper bounds.
    for pass in 1..=ws.narrow_passes {
        let last = pass == ws.narrow_passes;
        for &b in &cfg.rpo {
            if b != 0 {
                let mut first = true;
                for &p in &cfg.blocks[b].preds {
                    if !ws.reached[p] {
                        continue;
                    }
                    let taken = cfg.blocks[p].succs.iter().find(|e| e.to == b);
                    let guard = body[cfg.blocks[p].end - 1].guard;
                    let undo =
                        refine_edge(env, &mut ws.outs[p], taken.and_then(|e| e.taken), guard);
                    if first {
                        ws.ins[b].clone_from(&ws.outs[p]);
                        first = false;
                    } else {
                        ws.ins[b].join(&ws.outs[p], false, env);
                    }
                    if let Some(undo) = undo {
                        undo.restore(&mut ws.outs[p]);
                    }
                }
            }
            if !ws.reached[b] {
                continue;
            }
            let insts = &body[cfg.blocks[b].start..cfg.blocks[b].end];
            let out = &mut ws.outs[b];
            out.clone_from(&ws.ins[b]);
            for (i, inst) in insts.iter().enumerate() {
                if last {
                    match collect(env, out, inst)? {
                        Collected::Other => {}
                        Collected::Access(a) => visit(a),
                        // The collection pass skips a load that never
                        // executes, and the rest of the block sees its
                        // destination unwritten; the out-state does not.
                        Collected::Never if matches!(inst.op, Op::Ld { .. }) => {
                            ws.skip.clone_from(out);
                            collect_from(env, &mut ws.skip, &insts[i + 1..], &mut visit)?;
                            for inst in &insts[i..] {
                                transfer(env, out, inst);
                            }
                            break;
                        }
                        Collected::Never => {}
                    }
                }
                transfer(env, out, inst);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgValue, Dim3, Launch};
    use crate::parser::parse_kernel;
    use std::sync::Arc;

    fn launch_1d(src: &str, grid: u32, block: u32, args: Vec<ArgValue>) -> Launch {
        let k = Arc::new(parse_kernel(src).unwrap());
        Launch::new(k, Dim3::x(grid), Dim3::x(block), args)
    }

    const VECADD: &str = r#"
.entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [B];
  ld.param.u64 %rd3, [C];
  ld.param.u32 %r4, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r5, %r1, %r2, %r3;
  setp.ge.u32 %p1, %r5, %r4;
  @%p1 bra $DONE;
  mul.wide.u32 %rd4, %r5, 4;
  add.u64 %rd5, %rd1, %rd4;
  ld.global.f32 %f1, [%rd5];
  add.u64 %rd6, %rd2, %rd4;
  ld.global.f32 %f2, [%rd6];
  add.f32 %f3, %f1, %f2;
  add.u64 %rd7, %rd3, %rd4;
  st.global.f32 [%rd7], %f3;
$DONE:
  ret;
}
"#;

    #[test]
    fn vecadd_per_tb_ranges_are_disjoint_slices() {
        let (a, b, c) = (0x10000u64, 0x20000u64, 0x30000u64);
        let launch = launch_1d(
            VECADD,
            4,
            64,
            vec![
                ArgValue::Ptr(a),
                ArgValue::Ptr(b),
                ArgValue::Ptr(c),
                ArgValue::U32(256),
            ],
        );
        let acc = analyze_launch(&launch);
        assert!(!acc.non_static);
        assert_eq!(acc.per_tb.len(), 4);
        for (tb, t) in acc.per_tb.iter().enumerate() {
            let lo = tb as u64 * 64 * 4;
            let hi = lo + 64 * 4;
            assert_eq!(t.writes.ranges(), &[(c + lo, c + hi)], "tb{tb}");
            assert_eq!(t.reads.ranges(), &[(a + lo, a + hi), (b + lo, b + hi)]);
        }
        // Neighbouring blocks don't overlap in writes.
        assert!(!acc.per_tb[0].writes.intersects(&acc.per_tb[1].writes));
    }

    #[test]
    fn guard_prunes_out_of_range_tail_block() {
        // n=100, 2 blocks of 64: block 1 covers indices 64..99 only.
        let c = 0x30000u64;
        let launch = launch_1d(
            VECADD,
            2,
            64,
            vec![
                ArgValue::Ptr(0x10000),
                ArgValue::Ptr(0x20000),
                ArgValue::Ptr(c),
                ArgValue::U32(100),
            ],
        );
        let acc = analyze_launch(&launch);
        assert!(!acc.non_static);
        assert_eq!(acc.per_tb[1].writes.ranges(), &[(c + 256, c + 400)]);
    }

    #[test]
    fn indirect_gather_is_non_static() {
        let src = r#"
.entry gather(.param .u64 A, .param .u64 B)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [B];
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd3, %r1, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.u32 %r2, [%rd4];
  mul.wide.u32 %rd5, %r2, 4;
  add.u64 %rd6, %rd2, %rd5;
  ld.global.f32 %f1, [%rd6];
  ret;
}
"#;
        let launch = launch_1d(
            src,
            1,
            32,
            vec![ArgValue::Ptr(0x1000), ArgValue::Ptr(0x2000)],
        );
        let acc = analyze_launch(&launch);
        assert!(acc.non_static);
    }

    #[test]
    fn loop_over_row_yields_row_range() {
        // Each thread sums row `gid` of an NxN matrix: reads the whole row
        // A[gid*N .. gid*N+N) via a loop — narrowing must recover the bound.
        let src = r#"
.entry rowsum(.param .u64 A, .param .u64 O, .param .u32 n)
{
  ld.param.u64 %rd1, [A];
  ld.param.u64 %rd2, [O];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  mul.lo.u32 %r5, %r4, %r9;
  mov.u32 %r6, 0;
  mov.f32 %f1, 0f00000000;
$TOP:
  setp.ge.u32 %p1, %r6, %r9;
  @%p1 bra $OUT;
  add.u32 %r7, %r5, %r6;
  mul.wide.u32 %rd3, %r7, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.f32 %f2, [%rd4];
  add.f32 %f1, %f1, %f2;
  add.u32 %r6, %r6, 1;
  bra $TOP;
$OUT:
  mul.wide.u32 %rd5, %r4, 4;
  add.u64 %rd6, %rd2, %rd5;
  st.global.f32 [%rd6], %f1;
  ret;
}
"#;
        let a = 0x100000u64;
        let o = 0x200000u64;
        let n = 16u32;
        // 2 blocks x 8 threads: block 0 handles rows 0..8.
        let launch = launch_1d(
            src,
            2,
            8,
            vec![ArgValue::Ptr(a), ArgValue::Ptr(o), ArgValue::U32(n)],
        );
        let acc = analyze_launch(&launch);
        assert!(!acc.non_static, "loop kernel should stay static");
        // Block 0: rows 0..8 -> elements 0 .. 8*16 => bytes a .. a+512.
        let r0 = &acc.per_tb[0].reads;
        assert_eq!(r0.bounds(), Some((a, a + 8 * 16 * 4)));
        // Block 1: rows 8..16.
        let r1 = &acc.per_tb[1].reads;
        assert_eq!(r1.bounds(), Some((a + 8 * 16 * 4, a + 16 * 16 * 4)));
        assert_eq!(acc.per_tb[0].writes.ranges(), &[(o, o + 32)]);
    }

    #[test]
    fn second_narrowing_pass_bounds_a_copy_of_the_counter() {
        // `b` copies the counter before it is incremented. The first
        // narrowing pass joins the loop head with the widened fixpoint's
        // back-edge state, where `b` is still unbounded; only the second
        // bounds it, so a CFG with a loop keeps both passes.
        let src = r#"
.entry lag(.param .u64 A)
{
  ld.param.u64 %rd1, [A];
  mov.u32 %r1, 0;
  mov.u32 %r3, 0;
$TOP:
  setp.ge.u32 %p1, %r1, 10;
  @%p1 bra $OUT;
  mov.u32 %r3, %r1;
  add.u32 %r1, %r1, 1;
  bra $TOP;
$OUT:
  mul.wide.u32 %rd2, %r3, 4;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r1;
  ret;
}
"#;
        let launch = launch_1d(src, 1, 32, vec![ArgValue::Ptr(0x1000)]);
        let acc = analyze_launch(&launch);
        assert!(!acc.non_static);
        assert_eq!(acc.per_tb[0].writes.ranges(), &[(0x1000, 0x1000 + 40)]);
    }

    #[test]
    fn access_a_guard_rules_out_is_skipped_with_its_load() {
        // The guard proves the load never executes, so the collection pass
        // neither reports it nor lets its result taint the store after it
        // in the same block: the store stays static (and unbounded).
        let src = r#"
.entry skip(.param .u64 A)
{
  ld.param.u64 %rd1, [A];
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd2, %r1, 4;
  add.u64 %rd3, %rd1, %rd2;
  setp.gt.u64 %p1, %rd3, 1048576;
  @%p1 ld.global.u32 %r2, [%rd3];
  mul.wide.u32 %rd4, %r2, 4;
  add.u64 %rd5, %rd1, %rd4;
  st.global.u32 [%rd5], %r1;
  ret;
}
"#;
        let launch = launch_1d(src, 1, 32, vec![ArgValue::Ptr(0x1000)]);
        let acc = analyze_launch(&launch);
        assert!(!acc.non_static);
        assert!(acc.per_tb[0].reads.is_empty());
        assert_eq!(acc.per_tb[0].writes.ranges(), &[(0, u64::MAX)]);
    }

    #[test]
    fn stencil_reads_extend_one_past_block() {
        // out[i] = in[i-1] + in[i+1] with interior guard.
        let src = r#"
.entry stencil(.param .u64 I, .param .u64 O, .param .u32 n)
{
  ld.param.u64 %rd1, [I];
  ld.param.u64 %rd2, [O];
  ld.param.u32 %r9, [n];
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.u32 %r4, %r1, %r2, %r3;
  setp.eq.u32 %p1, %r4, 0;
  @%p1 bra $DONE;
  sub.u32 %r8, %r9, 1;
  setp.ge.u32 %p2, %r4, %r8;
  @%p2 bra $DONE;
  sub.u32 %r5, %r4, 1;
  mul.wide.u32 %rd3, %r5, 4;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.f32 %f1, [%rd4];
  add.u32 %r6, %r4, 1;
  mul.wide.u32 %rd5, %r6, 4;
  add.u64 %rd6, %rd1, %rd5;
  ld.global.f32 %f2, [%rd6];
  add.f32 %f3, %f1, %f2;
  mul.wide.u32 %rd7, %r4, 4;
  add.u64 %rd8, %rd2, %rd7;
  st.global.f32 [%rd8], %f3;
$DONE:
  ret;
}
"#;
        let i = 0x10000u64;
        let o = 0x20000u64;
        let launch = launch_1d(
            src,
            4,
            32,
            vec![ArgValue::Ptr(i), ArgValue::Ptr(o), ArgValue::U32(128)],
        );
        let acc = analyze_launch(&launch);
        assert!(!acc.non_static);
        // Interior block 1 (indices 32..63): reads 31..65 elements.
        let t1 = &acc.per_tb[1];
        assert_eq!(t1.reads.bounds(), Some((i + 31 * 4, i + 65 * 4)));
        assert_eq!(t1.writes.bounds(), Some((o + 32 * 4, o + 64 * 4)));
        // Inter-kernel view: a second stencil launch ping-pongs the buffers
        // (reads O, writes I). Its block 1 reads must overlap the writes of
        // blocks 0, 1, and 2 of the first launch — the halo that makes
        // stencils an "overlapped" dependency pattern (Fig. 8f).
        let launch2 = launch_1d(
            src,
            4,
            32,
            vec![ArgValue::Ptr(o), ArgValue::Ptr(i), ArgValue::U32(128)],
        );
        let acc2 = analyze_launch(&launch2);
        let child = &acc2.per_tb[1];
        for parent_tb in [0usize, 1, 2] {
            assert!(
                child.reads.intersects(&acc.per_tb[parent_tb].writes),
                "child TB1 should depend on parent TB{parent_tb}"
            );
        }
        assert!(!child.reads.intersects(&acc.per_tb[3].writes));
    }
}
