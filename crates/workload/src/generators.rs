//! Parametric kernel-family generators.
//!
//! Each generator scales a classic loop shape well past the paper's fixed
//! nine-kernel suite (and past a 4×4 array's 16 PEs): matrix
//! multiplication of any order, FIR filters of any tap count, 2-D
//! convolutions, unrolled FFT butterfly loops, and fan-in reduction
//! trees. All outputs are validated [`Kernel`]s; the fixed parameter
//! choices committed under `workloads/` live in [`crate::registry`].
//!
//! Capacity notes (default 256-deep configuration cache): [`matmul`] with
//! `n ≥ 11` no longer fits a 4×4 array and `n ≥ 16` also exceeds a 6×6;
//! [`reduction`]`(8192, 8, 8)` exceeds both while staying
//! multiplication-free, so its *rearranged* schedules keep fitting the
//! cache on every sharing variant — the kernel families that finally
//! force multi-geometry flows off the 4×4 early exit (pinned by the
//! `flow-workload` rows of `tests/bench_anchors.rs`).

use rsp_kernel::{AddrExpr, DfgBuilder, Kernel, KernelBuilder, MappingStyle, NodeId, Operand};

use Operand::{Node as N, Pair as P, Param as Pa};

/// Matrix multiplication of order `n`:
/// `Z(i,j) = C * sum_k X(i,k) * Y(k,j)` — the schedule shape of the
/// paper's Fig. 2, at arbitrary order.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// let k = rsp_workload::generators::matmul(16);
/// assert_eq!(k.name(), "matmul16");
/// assert_eq!(k.elements(), 256);
/// assert_eq!(k.steps(), 16);
/// ```
pub fn matmul(n: usize) -> Kernel {
    assert!(n > 0, "matrix order must be non-zero");
    let mut kb = KernelBuilder::new(format!("matmul{n}"), n * n);
    let x = kb.array("X", n * n);
    let y = kb.array("Y", n * n);
    let z = kb.array("Z", n * n);
    let c = kb.param("C", 3);
    let ni = n as i64;

    let mut b = DfgBuilder::new();
    let l = b.load_pair(
        AddrExpr::affine(x, 0, ni, 0, 1), // X[i, k], i = e / n, k = step
        AddrExpr::affine(y, 0, 0, 1, ni), // Y[k, j], j = e % n
    );
    let m = b.mult(N(l), P(l));
    let acc = b.accum_add(N(m), 0);

    let mut t = DfgBuilder::new();
    let scaled = t.mult(Operand::Carry(acc), Pa(c));
    t.store(AddrExpr::affine(z, 0, ni, 1, 0), N(scaled));

    kb.steps(n)
        .elem_divisor(n)
        .description(format!("Z(i,j) = C * sum_k X(i,k)*Y(k,j), order {n}"))
        .style(MappingStyle::Lockstep)
        .body(b.finish())
        .tail(t.finish())
        .build()
        .expect("matmul kernel is valid")
}

/// FIR filter with `taps` coefficients over `n` outputs:
/// `y[e] = sum_t c[t] * x[e + t]` (one tap per step, PE-local
/// accumulation, tail store).
///
/// # Panics
///
/// Panics if `n == 0` or `taps == 0`.
///
/// # Examples
///
/// ```
/// let k = rsp_workload::generators::fir(128, 8);
/// assert_eq!(k.name(), "fir128x8");
/// assert_eq!(k.iterations(), 1024);
/// ```
pub fn fir(n: usize, taps: usize) -> Kernel {
    assert!(n > 0 && taps > 0, "fir needs outputs and taps");
    let mut kb = KernelBuilder::new(format!("fir{n}x{taps}"), n);
    let x = kb.array("x", n + taps - 1);
    let c = kb.array("c", taps);
    let y = kb.array("y", n);

    let mut b = DfgBuilder::new();
    // One dual load fetches the sample and its coefficient together.
    let l = b.load_pair(
        AddrExpr::affine(x, 0, 1, 0, 1), // x[e + t], t = step
        AddrExpr::affine(c, 0, 0, 0, 1), // c[t]
    );
    let m = b.mult(N(l), P(l));
    let acc = b.accum_add(N(m), 0);

    let mut t = DfgBuilder::new();
    t.store(AddrExpr::flat(y, 0, 1), Operand::Carry(acc));

    kb.steps(taps)
        .description(format!(
            "y[e] = sum_t c[t]*x[e+t], {taps}-tap FIR over {n} outputs"
        ))
        .style(MappingStyle::Lockstep)
        .body(b.finish())
        .tail(t.finish())
        .build()
        .expect("fir kernel is valid")
}

/// Valid-region 2-D convolution of a `k`×`k` stencil over a
/// `width`×`height` image, fully unrolled into one dataflow body
/// (the stencil coefficients are loop-invariant parameters).
///
/// # Panics
///
/// Panics if `k == 0` or the stencil does not fit the image.
///
/// # Examples
///
/// ```
/// let k = rsp_workload::generators::conv2d(12, 12, 3);
/// assert_eq!(k.name(), "conv2d_12x12_3x3");
/// assert_eq!(k.elements(), 100); // (12-3+1)^2 outputs
/// ```
pub fn conv2d(width: usize, height: usize, k: usize) -> Kernel {
    assert!(
        k > 0 && k <= width && k <= height,
        "stencil must fit the image"
    );
    let ow = width - k + 1;
    let oh = height - k + 1;
    let mut kb = KernelBuilder::new(format!("conv2d_{width}x{height}_{k}x{k}"), ow * oh);
    let input = kb.array("in", width * height);
    let out = kb.array("out", ow * oh);
    // Small signed stencil defaults, deterministic in (r, c).
    let coef: Vec<_> = (0..k * k)
        .map(|t| kb.param(format!("c{}_{}", t / k, t % k), (t as i32 % 7) - 3))
        .collect();

    // Tap (r, c) reads in[(i + r) * width + (j + c)] with i = e / ow,
    // j = e % ow.
    let tap_addr = |t: usize| {
        let (r, c) = (t / k, t % k);
        AddrExpr::affine(input, (r * width + c) as i64, width as i64, 1, 0)
    };

    let mut b = DfgBuilder::new();
    // Dual loads fetch taps two at a time over the row read buses.
    let mut tap_val: Vec<Operand> = Vec::with_capacity(k * k);
    let mut t = 0;
    while t + 1 < k * k {
        let l = b.load_pair(tap_addr(t), tap_addr(t + 1));
        tap_val.push(N(l));
        tap_val.push(P(l));
        t += 2;
    }
    if t < k * k {
        let l = b.load(tap_addr(t));
        tap_val.push(N(l));
    }
    // One product per tap, then a balanced reduction tree.
    let mut terms: Vec<NodeId> = tap_val
        .iter()
        .zip(&coef)
        .map(|(v, c)| b.mult(*v, Pa(*c)))
        .collect();
    while terms.len() > 1 {
        terms = terms
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    b.add(N(pair[0]), N(pair[1]))
                } else {
                    pair[0]
                }
            })
            .collect();
    }
    b.store(AddrExpr::affine(out, 0, ow as i64, 1, 0), N(terms[0]));

    kb.elem_divisor(ow)
        .description(format!(
            "out[i,j] = sum_rc c[r,c]*in[i+r,j+c], {k}x{k} stencil over {width}x{height} (valid region)"
        ))
        .style(MappingStyle::Dataflow)
        .body(b.finish())
        .build()
        .expect("conv2d kernel is valid")
}

/// Unrolled radix-2 FFT butterfly multiplication loop over `n`
/// butterflies: `t = w*b; (out, out2) = (a + t, a - t)` on complex
/// values, one butterfly per element.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// let k = rsp_workload::generators::fft(64);
/// assert_eq!(k.name(), "fft64");
/// assert_eq!(k.body_mults(), 4);
/// ```
pub fn fft(n: usize) -> Kernel {
    assert!(n > 0, "butterfly count must be non-zero");
    let mut kb = KernelBuilder::new(format!("fft{n}"), n);
    let wr = kb.array("wr", n);
    let wi = kb.array("wi", n);
    let br = kb.array("br", n);
    let bi = kb.array("bi", n);
    let ar = kb.array("ar", n);
    let ai = kb.array("ai", n);
    let our = kb.array("out_r", n);
    let oui = kb.array("out_i", n);
    let opr = kb.array("out2_r", n);
    let opi = kb.array("out2_i", n);

    let mut b = DfgBuilder::new();
    let lw = b.load_pair(AddrExpr::flat(wr, 0, 1), AddrExpr::flat(wi, 0, 1));
    let lb = b.load_pair(AddrExpr::flat(br, 0, 1), AddrExpr::flat(bi, 0, 1));
    let la = b.load_pair(AddrExpr::flat(ar, 0, 1), AddrExpr::flat(ai, 0, 1));

    let m0 = b.mult(N(lw), N(lb)); // wr*br
    let m1 = b.mult(P(lw), P(lb)); // wi*bi
    let m2 = b.mult(N(lw), P(lb)); // wr*bi
    let m3 = b.mult(P(lw), N(lb)); // wi*br
    let tr = b.sub(N(m0), N(m1));
    let ti = b.add(N(m2), N(m3));

    let sum_r = b.add(N(la), N(tr));
    b.store(AddrExpr::flat(our, 0, 1), N(sum_r));
    let sum_i = b.add(P(la), N(ti));
    b.store(AddrExpr::flat(oui, 0, 1), N(sum_i));
    let dif_r = b.sub(N(la), N(tr));
    b.store(AddrExpr::flat(opr, 0, 1), N(dif_r));
    let dif_i = b.sub(P(la), N(ti));
    b.store(AddrExpr::flat(opi, 0, 1), N(dif_i));

    kb.description(format!(
        "radix-2 FFT butterfly loop over {n} butterflies: t = w*b; out = a+t; out2 = a-t"
    ))
    .style(MappingStyle::Dataflow)
    .body(b.finish())
    .build()
    .expect("fft kernel is valid")
}

/// Fan-in reduction tree: `n` inputs reduced `fan_in` at a time by a
/// balanced addition tree, `steps` trees accumulated per element
/// (`n / (fan_in·steps)` partial sums, host reduction outside the
/// kernel as in the paper's inner product).
///
/// With `steps == 1` the kernel is a pure dataflow tree (one element per
/// row); with `steps > 1` each element chains `steps` trees through a
/// PE-local accumulator and a tail stores the total (lockstep style).
/// The kernel is multiplication-free, so — like the paper's SAD — it
/// never contends for shared resources: even the largest instances
/// rearrange onto any RS/RSP variant without a single stall, which is
/// what lets a cache-fillingly large reduction force multi-geometry
/// flows onto the 8×8 array without overflowing the configuration cache
/// in the RSP-mapping stage.
///
/// # Panics
///
/// Panics if `fan_in < 2`, `steps == 0`, or `n` is not a positive
/// multiple of `fan_in * steps`.
///
/// # Examples
///
/// ```
/// let k = rsp_workload::generators::reduction(256, 8, 1);
/// assert_eq!(k.name(), "reduce256x8");
/// assert_eq!(k.elements(), 32);
///
/// let big = rsp_workload::generators::reduction(8192, 8, 8);
/// assert_eq!(big.name(), "reduce8192x8x8");
/// assert_eq!(big.elements(), 128);
/// assert_eq!(big.total_mults(), 0);
/// ```
pub fn reduction(n: usize, fan_in: usize, steps: usize) -> Kernel {
    assert!(fan_in >= 2, "fan-in must be at least 2");
    assert!(steps > 0, "steps must be non-zero");
    assert!(
        n > 0 && n.is_multiple_of(fan_in * steps),
        "n must be a positive multiple of fan_in * steps"
    );
    let elements = n / (fan_in * steps);
    let name = if steps == 1 {
        format!("reduce{n}x{fan_in}")
    } else {
        format!("reduce{n}x{fan_in}x{steps}")
    };
    let mut kb = KernelBuilder::new(name, elements);
    let input = kb.array("in", n);
    let partial = kb.array("partial", elements);

    // Element e, step s reads in[e * fan_in * steps + s * fan_in + t].
    let slot =
        |t: usize| AddrExpr::affine(input, t as i64, (fan_in * steps) as i64, 0, fan_in as i64);

    let mut b = DfgBuilder::new();
    let mut leaves: Vec<Operand> = Vec::with_capacity(fan_in);
    let mut t = 0;
    while t + 1 < fan_in {
        let l = b.load_pair(slot(t), slot(t + 1));
        leaves.push(N(l));
        leaves.push(P(l));
        t += 2;
    }
    if t < fan_in {
        leaves.push(N(b.load(slot(t))));
    }
    let mut level: Vec<NodeId> = leaves
        .chunks(2)
        .map(|pair| {
            if pair.len() == 2 {
                b.add(pair[0], pair[1])
            } else {
                b.add(pair[0], Operand::Const(0))
            }
        })
        .collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    b.add(N(pair[0]), N(pair[1]))
                } else {
                    pair[0]
                }
            })
            .collect();
    }
    if steps == 1 {
        b.store(AddrExpr::flat(partial, 0, 1), N(level[0]));
        kb.description(format!(
            "partial[e] = sum of in[{fan_in}e..{fan_in}(e+1)), balanced {fan_in}-ary reduction tree"
        ))
        .style(MappingStyle::Dataflow)
        .body(b.finish())
        .build()
        .expect("reduction kernel is valid")
    } else {
        let acc = b.accum_add(N(level[0]), 0);
        let mut t = DfgBuilder::new();
        t.store(AddrExpr::flat(partial, 0, 1), Operand::Carry(acc));
        kb.steps(steps)
            .description(format!(
                "partial[e] = sum over {steps} steps of {fan_in}-ary reduction trees \
                 (multiplication-free, stall-free on every RS/RSP variant)"
            ))
            .style(MappingStyle::Lockstep)
            .body(b.finish())
            .tail(t.finish())
            .build()
            .expect("reduction kernel is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_kernel::{evaluate, Bindings, MemoryImage};

    #[test]
    fn matmul_matches_reference_arithmetic() {
        let n = 6;
        let k = matmul(n);
        let img = MemoryImage::random(&k, 11);
        let out = evaluate(&k, &img, &Bindings::defaults(&k)).unwrap();
        for i in 0..n {
            for j in 0..n {
                let dot: i32 = (0..n)
                    .map(|t| img.read(0, i * n + t) * img.read(1, t * n + j))
                    .sum();
                assert_eq!(out.read(2, i * n + j), 3 * dot, "Z[{i},{j}]");
            }
        }
    }

    #[test]
    fn fir_matches_direct_convolution() {
        let (n, taps) = (16, 4);
        let k = fir(n, taps);
        let img = MemoryImage::random(&k, 3);
        let out = evaluate(&k, &img, &Bindings::defaults(&k)).unwrap();
        for e in 0..n {
            let expect: i32 = (0..taps).map(|t| img.read(1, t) * img.read(0, e + t)).sum();
            assert_eq!(out.read(2, e), expect, "y[{e}]");
        }
    }

    #[test]
    fn conv2d_matches_direct_stencil() {
        let (w, h, kk) = (8, 6, 3);
        let k = conv2d(w, h, kk);
        let img = MemoryImage::random(&k, 7);
        let params = Bindings::defaults(&k);
        let out = evaluate(&k, &img, &params).unwrap();
        let ow = w - kk + 1;
        for i in 0..(h - kk + 1) {
            for j in 0..ow {
                let expect: i32 = (0..kk * kk)
                    .map(|t| {
                        let (r, c) = (t / kk, t % kk);
                        params.get(t) * img.read(0, (i + r) * w + (j + c))
                    })
                    .sum();
                assert_eq!(out.read(1, i * ow + j), expect, "out[{i},{j}]");
            }
        }
    }

    #[test]
    fn fft_matches_complex_butterfly() {
        let k = fft(16);
        let img = MemoryImage::random(&k, 5);
        let out = evaluate(&k, &img, &Bindings::defaults(&k)).unwrap();
        for e in 0..16 {
            let (wr, wi) = (img.read(0, e), img.read(1, e));
            let (br, bi) = (img.read(2, e), img.read(3, e));
            let (ar, ai) = (img.read(4, e), img.read(5, e));
            let tr = wr * br - wi * bi;
            let ti = wr * bi + wi * br;
            assert_eq!(out.read(6, e), ar + tr);
            assert_eq!(out.read(7, e), ai + ti);
            assert_eq!(out.read(8, e), ar - tr);
            assert_eq!(out.read(9, e), ai - ti);
        }
    }

    #[test]
    fn reduction_partials_sum_inputs() {
        for (fan_in, steps) in [(2, 1), (3, 1), (8, 1), (2, 3), (8, 4)] {
            let n = 8 * fan_in * steps;
            let k = reduction(n, fan_in, steps);
            let img = MemoryImage::random(&k, 9);
            let out = evaluate(&k, &img, &Bindings::defaults(&k)).unwrap();
            let span = fan_in * steps;
            for e in 0..n / span {
                let expect: i32 = (0..span).map(|t| img.read(0, e * span + t)).sum();
                assert_eq!(
                    out.read(1, e),
                    expect,
                    "partial[{e}] (fan-in {fan_in}, steps {steps})"
                );
            }
        }
    }

    #[test]
    fn stepped_reduction_is_multiplication_free_lockstep() {
        let k = reduction(8192, 8, 8);
        assert_eq!(k.style(), MappingStyle::Lockstep);
        assert_eq!(k.total_mults(), 0);
        assert_eq!(k.elements(), 128);
        assert_eq!(k.steps(), 8);
    }

    #[test]
    fn dataflow_families_are_dataflow_shaped() {
        for k in [conv2d(8, 8, 3), fft(32), reduction(64, 4, 1)] {
            assert_eq!(k.style(), MappingStyle::Dataflow, "{}", k.name());
            assert_eq!(k.steps(), 1, "{}", k.name());
            assert!(k.tail().is_none(), "{}", k.name());
        }
    }
}
