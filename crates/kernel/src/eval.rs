//! Reference (software) execution of kernels.
//!
//! The evaluator computes the architecturally-visible result of a kernel —
//! the final memory image — directly from the DFG semantics, without any
//! notion of PEs, cycles, or buses. The cycle-accurate simulator
//! (`rsp-sim`) must produce bit-identical memory for every legal schedule;
//! that equivalence is the main functional-correctness oracle of the whole
//! reproduction.
//!
//! # Arithmetic semantics
//!
//! The datapath is 16 bits wide with a 16×16 array multiplier producing a
//! 2n-bit product (Fig. 4). We model values as `i32`:
//!
//! * `Mult` multiplies the *low 16 bits* (sign-extended) of each operand
//!   and keeps the full 32-bit product — exactly the array multiplier.
//! * ALU and shift operations use wrapping 32-bit arithmetic (the
//!   accumulator view of the datapath); shift amounts are masked to 4 bits
//!   (a 16-bit barrel shifter).
//!
//! These rules are shared by the evaluator and the simulator via
//! [`apply_op`].

use crate::dfg::{Dfg, Operand};
use crate::error::KernelError;
use crate::kernel::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsp_arch::OpKind;
use serde::{Deserialize, Serialize};

/// The contents of data memory: one `Vec<i32>` per declared array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryImage {
    arrays: Vec<Vec<i32>>,
}

impl MemoryImage {
    /// A zero-filled image matching a kernel's array declarations.
    pub fn zeroed(kernel: &Kernel) -> Self {
        Self {
            arrays: kernel.arrays().iter().map(|a| vec![0; a.len]).collect(),
        }
    }

    /// A deterministic pseudo-random image with small values (±63) so that
    /// repeated multiplications stay far from overflow.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_kernel::{suite, MemoryImage};
    /// let k = suite::inner_product();
    /// let img = MemoryImage::random(&k, 42);
    /// assert_eq!(img, MemoryImage::random(&k, 42)); // reproducible
    /// ```
    pub fn random(kernel: &Kernel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            arrays: kernel
                .arrays()
                .iter()
                .map(|a| (0..a.len).map(|_| rng.gen_range(-63..=63)).collect())
                .collect(),
        }
    }

    /// Number of arrays.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Read a word.
    ///
    /// # Panics
    ///
    /// Panics if the array index or address is out of range (kernel
    /// validation guarantees in-range addresses for validated kernels).
    pub fn read(&self, array: usize, addr: usize) -> i32 {
        self.arrays[array][addr]
    }

    /// Write a word.
    ///
    /// # Panics
    ///
    /// Panics if the array index or address is out of range.
    pub fn write(&mut self, array: usize, addr: usize, value: i32) {
        self.arrays[array][addr] = value;
    }

    /// The full contents of one array.
    pub fn array(&self, array: usize) -> &[i32] {
        &self.arrays[array]
    }
}

fn low16(x: i32) -> i32 {
    x as i16 as i32
}

/// Applies the architectural semantics of a binary/unary operation.
///
/// For unary operations `b` is ignored. `Load`, `Store`, `Mov`, and `Nop`
/// pass `a` through (memory movement is handled by the caller).
///
/// # Examples
///
/// ```
/// use rsp_arch::OpKind;
/// use rsp_kernel::apply_op;
///
/// assert_eq!(apply_op(OpKind::Mult, 300, 300), 90_000); // full 32-bit product
/// assert_eq!(apply_op(OpKind::Abs, -5, 0), 5);
/// assert_eq!(apply_op(OpKind::Shl, 1, 4), 16);
/// ```
pub fn apply_op(op: OpKind, a: i32, b: i32) -> i32 {
    let sh = (b & 0xF) as u32;
    match op {
        OpKind::Add => a.wrapping_add(b),
        OpKind::Sub => a.wrapping_sub(b),
        OpKind::Abs => a.wrapping_abs(),
        OpKind::Min => a.min(b),
        OpKind::Max => a.max(b),
        OpKind::And => a & b,
        OpKind::Or => a | b,
        OpKind::Xor => a ^ b,
        OpKind::Shl => a.wrapping_shl(sh),
        OpKind::Shr => ((a as u32) >> sh) as i32,
        OpKind::Asr => a >> sh,
        OpKind::Mult => low16(a).wrapping_mul(low16(b)),
        OpKind::Load | OpKind::Store | OpKind::Mov | OpKind::Nop => a,
    }
}

/// Scalar parameter bindings for one evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bindings {
    values: Vec<i32>,
}

impl Bindings {
    /// The kernel's declared defaults.
    pub fn defaults(kernel: &Kernel) -> Self {
        Self {
            values: kernel.params().iter().map(|p| p.default).collect(),
        }
    }

    /// Overrides one parameter by index.
    ///
    /// # Panics
    ///
    /// Panics if `param` is out of range.
    pub fn set(&mut self, param: usize, value: i32) -> &mut Self {
        self.values[param] = value;
        self
    }

    /// The bound value of a parameter.
    pub fn get(&self, param: usize) -> i32 {
        self.values[param]
    }
}

/// Evaluates `kernel` on `input`, returning the final memory image.
///
/// Loads observe `input` (snapshot semantics); stores accumulate into the
/// returned image, which starts as a copy of `input`.
///
/// # Errors
///
/// Returns [`KernelError`] only for kernels that bypassed validation (the
/// public constructors always validate, making this effectively
/// infallible for library users).
///
/// # Examples
///
/// ```
/// use rsp_kernel::{evaluate, suite, Bindings, MemoryImage};
///
/// let k = suite::sad();
/// let input = MemoryImage::random(&k, 7);
/// let out = evaluate(&k, &input, &Bindings::defaults(&k))?;
/// // SAD partials are non-negative sums of absolute differences.
/// let partials = out.array(2);
/// assert!(partials.iter().all(|&v| v >= 0));
/// # Ok::<(), rsp_kernel::KernelError>(())
/// ```
pub fn evaluate(
    kernel: &Kernel,
    input: &MemoryImage,
    bindings: &Bindings,
) -> Result<MemoryImage, KernelError> {
    let mut out = input.clone();
    // Value buffers reused across steps and elements: `vals` receives
    // the current step, `prev` holds the step before it.
    let mut vals: Vec<i32> = Vec::with_capacity(kernel.body().len());
    let mut prev: Vec<i32> = Vec::with_capacity(kernel.body().len());
    let mut pair_vals: Vec<i32> = Vec::with_capacity(kernel.body().len());
    for e in 0..kernel.elements() {
        for s in 0..kernel.steps() {
            std::mem::swap(&mut vals, &mut prev);
            eval_dfg(
                kernel.body(),
                kernel,
                input,
                &mut out,
                bindings,
                e,
                s,
                (s > 0).then_some(prev.as_slice()),
                &[],
                &mut vals,
                &mut pair_vals,
            )?;
        }
        if let Some(tail) = kernel.tail() {
            std::mem::swap(&mut vals, &mut prev);
            eval_dfg(
                tail,
                kernel,
                input,
                &mut out,
                bindings,
                e,
                kernel.steps() - 1,
                None,
                &prev,
                &mut vals,
                &mut pair_vals,
            )?;
        }
    }
    Ok(out)
}

/// Evaluates one step of `dfg` into `vals` (and the second words of
/// paired loads into `pair_vals`). `prev_step` holds the previous step's
/// values, `None` at step 0, where accumulators read their `init`.
#[allow(clippy::too_many_arguments)]
fn eval_dfg(
    dfg: &Dfg,
    kernel: &Kernel,
    input: &MemoryImage,
    out: &mut MemoryImage,
    bindings: &Bindings,
    e: usize,
    s: usize,
    prev_step: Option<&[i32]>,
    carries: &[i32],
    vals: &mut Vec<i32>,
    pair_vals: &mut Vec<i32>,
) -> Result<(), KernelError> {
    let d = kernel.elem_divisor();
    vals.clear();
    pair_vals.clear();
    for (id, n) in dfg.iter() {
        let read = |o: &Operand, vals: &[i32]| -> i32 {
            match *o {
                Operand::Node(p) => vals[p.index()],
                Operand::Pair(p) => pair_vals[p.index()],
                Operand::Const(c) => c,
                Operand::Param(p) => bindings.get(p.index()),
                Operand::Accum { node, init } => prev_step
                    .and_then(|prev| prev.get(node.index()))
                    .copied()
                    .unwrap_or(init),
                Operand::Carry(c) => carries[c.index()],
            }
        };
        let (v, pv) = match n.op() {
            OpKind::Load => {
                let a = n.addr().expect("validated load has addr");
                let v = input.read(a.array.index(), a.eval(e, s, d) as usize);
                let pv = n
                    .addr2()
                    .map(|a2| input.read(a2.array.index(), a2.eval(e, s, d) as usize))
                    .unwrap_or(0);
                (v, pv)
            }
            OpKind::Store => {
                let a = n.addr().expect("validated store has addr");
                let v = read(&n.operands()[0], vals);
                out.write(a.array.index(), a.eval(e, s, d) as usize, v);
                (v, 0)
            }
            op => {
                let a = n.operands().first().map(|o| read(o, vals)).unwrap_or(0);
                let b = n.operands().get(1).map(|o| read(o, vals)).unwrap_or(0);
                (apply_op(op, a, b), 0)
            }
        };
        debug_assert_eq!(id.index(), vals.len());
        vals.push(v);
        pair_vals.push(pv);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::{AddrExpr, DfgBuilder, Operand};
    use crate::kernel::KernelBuilder;

    fn saxpy_kernel(n: usize) -> Kernel {
        let mut kb = KernelBuilder::new("saxpy", n);
        let x = kb.array("x", n);
        let y = kb.array("y", n);
        let out = kb.array("out", n);
        let a = kb.param("a", 3);
        let mut b = DfgBuilder::new();
        let l = b.load_pair(AddrExpr::flat(x, 0, 1), AddrExpr::flat(y, 0, 1));
        let m = b.mult(Operand::Node(l), Operand::Param(a));
        let sum = b.add(Operand::Node(m), Operand::Pair(l));
        b.store(AddrExpr::flat(out, 0, 1), Operand::Node(sum));
        kb.body(b.finish()).build().unwrap()
    }

    #[test]
    fn saxpy_matches_scalar_model() {
        let k = saxpy_kernel(16);
        let img = MemoryImage::random(&k, 1);
        let out = evaluate(&k, &img, &Bindings::defaults(&k)).unwrap();
        for i in 0..16 {
            let expect = 3 * img.read(0, i) + img.read(1, i);
            assert_eq!(out.read(2, i), expect, "element {i}");
        }
    }

    #[test]
    fn param_override_changes_result() {
        let k = saxpy_kernel(4);
        let img = MemoryImage::random(&k, 2);
        let mut b = Bindings::defaults(&k);
        b.set(0, 10);
        let out = evaluate(&k, &img, &b).unwrap();
        assert_eq!(out.read(2, 0), 10 * img.read(0, 0) + img.read(1, 0));
    }

    #[test]
    fn accumulation_across_steps() {
        // sum over 4 steps of x[4e + s], stored by tail.
        let mut kb = KernelBuilder::new("acc", 2);
        let x = kb.array("x", 8);
        let out = kb.array("out", 2);
        let mut b = DfgBuilder::new();
        let l = b.load(AddrExpr::affine(x, 0, 4, 0, 1));
        let acc = b.accum_add(Operand::Node(l), 0);
        let mut t = DfgBuilder::new();
        t.store(AddrExpr::flat(out, 0, 1), Operand::Carry(acc));
        let k = kb
            .steps(4)
            .body(b.finish())
            .tail(t.finish())
            .build()
            .unwrap();

        let mut img = MemoryImage::zeroed(&k);
        for i in 0..8 {
            img.write(0, i, i as i32 + 1);
        }
        let res = evaluate(&k, &img, &Bindings::defaults(&k)).unwrap();
        assert_eq!(res.read(1, 0), 1 + 2 + 3 + 4);
        assert_eq!(res.read(1, 1), 5 + 6 + 7 + 8);
    }

    #[test]
    fn mult_uses_low_16_bits() {
        // 0x1_0005 low 16 = 5.
        assert_eq!(apply_op(OpKind::Mult, 0x10005, 3), 15);
        assert_eq!(apply_op(OpKind::Mult, -2, 3), -6);
        // Full product exceeds 16 bits and is kept.
        assert_eq!(apply_op(OpKind::Mult, 1000, 1000), 1_000_000);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(apply_op(OpKind::Shl, 1, 16), 1); // 16 & 0xF == 0
        assert_eq!(apply_op(OpKind::Asr, -16, 2), -4);
        // 28 & 0xF == 12, so the logical shift keeps the top 20 bits clear.
        assert_eq!(apply_op(OpKind::Shr, -1, 28), 0x000F_FFFF);
    }

    #[test]
    fn min_max_and_bitwise() {
        assert_eq!(apply_op(OpKind::Min, 3, -7), -7);
        assert_eq!(apply_op(OpKind::Max, 3, -7), 3);
        assert_eq!(apply_op(OpKind::And, 0b1100, 0b1010), 0b1000);
        assert_eq!(apply_op(OpKind::Or, 0b1100, 0b1010), 0b1110);
        assert_eq!(apply_op(OpKind::Xor, 0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn zeroed_image_shape() {
        let k = saxpy_kernel(4);
        let img = MemoryImage::zeroed(&k);
        assert_eq!(img.array_count(), 3);
        assert_eq!(img.array(0).len(), 4);
        assert!(img.array(0).iter().all(|&v| v == 0));
    }

    #[test]
    fn random_image_within_range() {
        let k = saxpy_kernel(64);
        let img = MemoryImage::random(&k, 3);
        for a in 0..3 {
            assert!(img.array(a).iter().all(|&v| (-63..=63).contains(&v)));
        }
    }

    #[test]
    fn stores_do_not_affect_loads() {
        // Kernel that loads x[e] and stores 2*x[e] back into x[e]: snapshot
        // semantics mean every load sees the original value.
        let mut kb = KernelBuilder::new("inplace", 4);
        let x = kb.array("x", 4);
        let mut b = DfgBuilder::new();
        let l = b.load(AddrExpr::flat(x, 0, 1));
        let dbl = b.add(Operand::Node(l), Operand::Node(l));
        b.store(AddrExpr::flat(x, 0, 1), Operand::Node(dbl));
        let k = kb.body(b.finish()).build().unwrap();

        let mut img = MemoryImage::zeroed(&k);
        for i in 0..4 {
            img.write(0, i, 5);
        }
        let out = evaluate(&k, &img, &Bindings::defaults(&k)).unwrap();
        assert!(out.array(0).iter().all(|&v| v == 10));
    }
}
