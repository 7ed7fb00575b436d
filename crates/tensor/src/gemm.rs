//! Register-tiled GEMM in two regimes — the compute core of the crate.
//!
//! All three matrix products the model zoo needs (`A·B`, `Aᵀ·B`, `A·Bᵀ`)
//! funnel into one entry, `gemm_into`, parameterised by operand views so
//! no transpose is ever materialised, and both regimes drive the same
//! `MR × NR` register-tile kernels (`fma_row` over named accumulator
//! rows). What differs is how the operands reach the tile:
//!
//! * **In place** (`m·n·k ≤ 2²¹`, i.e. up to 128³): nothing is packed. A's
//!   elements are broadcast scalars, so they are read where they lie — a
//!   row-major A as pre-sliced rows walked along `k`, a transposed A as one
//!   `&[f32; R]` column per k-step. B's rows are read in place whenever
//!   they are unit-stride and a full `NR`-wide tile exists; a ragged last
//!   tile (`n = 10`) or a transposed B is copied once per `KC` panel into
//!   the zero-padded thread-local panel. The last row band runs the kernel
//!   monomorphised for its 1..=8 live rows, so `m = 10` costs 10 rows, not
//!   16. This is the regime every per-step product of the model zoo lands
//!   in: at those sizes both operands sit in cache, and a pack is a copy of
//!   B that is never reused (the weights change every step).
//! * **Blocked** (everything larger): the GotoBLAS/BLIS decomposition. The
//!   output is swept in `NC`-wide column blocks and `KC`-deep panels; each
//!   `KC × NC` block of B is packed once into contiguous `NR`-wide
//!   micro-panels, each `MC × KC` block of A into `MR`-tall ones, and the
//!   tile kernel streams the packed panels. Packing pays once B no longer
//!   fits in cache beside A and C, and this regime splits rows across the
//!   worker pool.
//!
//! The regime is a pure function of `(m, n, k)` ([`Regime::for_shape`]);
//! the boundary is measured (DESIGN.md §10.1), not configurable.
//!
//! A second entry, `axpy_tn_in_regime`, is the SGD step `W += alpha · op(A)·op(B)`
//! without the gradient matrix. In place with a single `KC` panel
//! (`k <= KC`, every weight step of the MLP and softmax models), a finished
//! tile is written straight into `W` (the `Axpy` write-back); otherwise
//! the product lands in a thread-local buffer and the axpy runs over it.
//!
//! # Determinism
//!
//! For every output element, both regimes do the same arithmetic: the
//! output starts at `0.0`, each `KC` panel (ascending `k`) is one fused
//! chain from `0.0` in ascending `k`, and the panel sums are added to the
//! output in order. That order depends only on the problem shape — not on
//! the regime, and not on how many threads run the blocked one, because
//! parallelism only splits the *rows* of the output into bands and every
//! row is computed start-to-finish by exactly one task. Results are
//! therefore bit-identical across regimes and thread counts (enforced by
//! `tests/gemm_props.rs`).
//!
//! The SGD entry keeps that sum. The fused write-back gives each element
//! of `W` `w + alpha * (0.0 + p)`, where `p` is the one panel's chain —
//! exactly what `Matrix::axpy` adds from the `0.0 + p` a zeroed output
//! holds after that panel (the `0.0 +` turns a `-0.0` chain into `+0.0`).
//! The buffered path adds `alpha * c` for the plain entry's in-order panel
//! sum `c = ((0 + p1) + p2)…`.
//!
//! Packing buffers are thread-local and grown on first use, so steady-state
//! calls perform no heap allocation on the calling thread.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

use crate::matrix::Matrix;
use crate::pool;

/// Rows of the register tile (micro-panel height of packed A).
pub const MR: usize = 8;
/// Columns of the register tile (micro-panel width of packed B).
pub const NR: usize = 32;
/// Rows of A packed per L2-resident block (multiple of `MR`).
const MC: usize = 64;
/// Depth of one panel: the length of one fused accumulation chain.
const KC: usize = 128;
/// Columns of B packed per outer block (multiple of `NR`).
const NC: usize = 128;

/// Largest multiply-add count the in-place regime takes (128³). Measured
/// (DESIGN.md §10.1): at 128³ in place runs in 34 µs against 46 µs blocked
/// on one thread and 85 µs across two, where the pool dispatch alone costs
/// more than the product; at 256³ the packed, parallel path is ahead.
const IN_PLACE_MAX_MULADDS: usize = 1 << 21;

/// A read-only operand view over row-major storage with rows of `ld`
/// elements: logical element `(i, j)` lives at `data[i * ld + j]`, or at
/// `data[j * ld + i]` when `transposed` — a transposed operand flips the
/// flag instead of moving data.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    ld: usize,
    transposed: bool,
}

impl<'a> View<'a> {
    /// Row-major `rows x cols` view.
    pub(crate) fn normal(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            ld: cols,
            transposed: false,
        }
    }

    /// Transposed view of row-major data that is `rows x cols` in storage:
    /// logical element `(i, j)` reads `data[j][i]`.
    pub(crate) fn transposed(data: &'a [f32], cols: usize) -> Self {
        Self {
            data,
            ld: cols,
            transposed: true,
        }
    }
}

/// Which of the two drivers computes a product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// Operands read where they lie; serial.
    InPlace,
    /// Operands packed into micro-panels; row bands across the pool.
    Blocked,
}

impl Regime {
    /// The regime the `matmul` family uses for an `m x k` by `k x n` product.
    pub fn for_shape(m: usize, n: usize, k: usize) -> Self {
        if m.saturating_mul(n).saturating_mul(k) <= IN_PLACE_MAX_MULADDS {
            Self::InPlace
        } else {
            Self::Blocked
        }
    }
}

thread_local! {
    /// Per-thread packing scratch: (A panels, B panels), grown on first
    /// use to the largest block the regime in use can request.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Per-thread product of the SGD entry outside the fused path. Taken out
    /// for the call, not borrowed: a blocked product waits on the pool, and
    /// a waiting thread runs queued tasks, which may train a model too.
    static PRODUCT: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// `out = A · B` over operand views; `out` is row-major `m x n` and is
/// fully overwritten. `threads` is the *requested* band count of the
/// blocked regime (which may use fewer); the in-place regime ignores it.
pub(crate) fn gemm_into(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    threads: usize,
) {
    gemm_in_regime(Regime::for_shape(m, n, k), out, m, n, k, a, b, threads);
}

/// `w += alpha · A · B` over operand views through `regime`, `w` row-major
/// `m x n`: bit-identical to [`gemm_into`] into a zeroed buffer followed by
/// `w[i] += alpha * buf[i]`, at every shape and thread budget.
#[allow(clippy::too_many_arguments)]
fn gemm_axpy_in_regime(
    regime: Regime,
    w: &mut [f32],
    alpha: f32,
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    threads: usize,
) {
    assert_eq!(w.len(), m * n, "output buffer shape mismatch");
    if regime == Regime::InPlace && 0 < k && k <= KC {
        assert_eq!(a.data.len(), m * k, "left operand shape mismatch");
        assert_eq!(b.data.len(), k * n, "right operand shape mismatch");
        gemm_in_place(w, m, n, k, a, b, Axpy(alpha));
        return;
    }
    let mut product = PRODUCT.take();
    product.resize(m * n, 0.0);
    gemm_in_regime(regime, &mut product, m, n, k, a, b, threads);
    for (w, &g) in w.iter_mut().zip(&product) {
        *w += alpha * g;
    }
    PRODUCT.set(product);
}

/// Differential-test entry: `op(a) · op(b)` through `regime` whatever the
/// shape, where `op` transposes when the flag is set. Production code goes
/// through [`Matrix::matmul_into`] and friends, which pick the regime from
/// the shape; this is the only way to force one.
///
/// # Panics
///
/// Panics if the inner dimensions differ.
#[doc(hidden)]
pub fn product_in_regime(
    regime: Regime,
    a: &Matrix,
    a_transposed: bool,
    b: &Matrix,
    b_transposed: bool,
    threads: usize,
) -> Matrix {
    // (view, logical rows, logical cols) of `op(mat)`.
    fn operand(mat: &Matrix, transposed: bool) -> (View<'_>, usize, usize) {
        let view = View {
            data: mat.as_slice(),
            ld: mat.cols(),
            transposed,
        };
        if transposed {
            (view, mat.cols(), mat.rows())
        } else {
            (view, mat.rows(), mat.cols())
        }
    }
    let (a, m, k) = operand(a, a_transposed);
    let (b, kb, n) = operand(b, b_transposed);
    assert_eq!(k, kb, "inner dimensions differ");
    let mut out = Matrix::zeros(m, n);
    gemm_in_regime(regime, out.as_mut_slice(), m, n, k, a, b, threads);
    out
}

/// [`Matrix::axpy_tn`] (`w += alpha · aᵀ·b`) through `regime` whatever
/// the shape. `Matrix::axpy_tn` passes the regime [`Regime::for_shape`]
/// names; the differential tests force each.
///
/// # Panics
///
/// Panics if `a` and `b` differ in rows or `w` is not `a.cols() x b.cols()`.
#[doc(hidden)]
pub fn axpy_tn_in_regime(
    regime: Regime,
    w: &mut Matrix,
    alpha: f32,
    a: &Matrix,
    b: &Matrix,
    threads: usize,
) {
    assert_eq!(a.rows(), b.rows(), "inner dimensions differ");
    assert_eq!(w.shape(), (a.cols(), b.cols()), "output shape mismatch");
    let (m, n, k) = (a.cols(), b.cols(), a.rows());
    let (a, b) = (
        View::transposed(a.as_slice(), m),
        View::normal(b.as_slice(), n),
    );
    gemm_axpy_in_regime(regime, w.as_mut_slice(), alpha, m, n, k, a, b, threads);
}

#[allow(clippy::too_many_arguments)]
fn gemm_in_regime(
    regime: Regime,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    threads: usize,
) {
    assert_eq!(out.len(), m * n, "output buffer shape mismatch");
    // The tile kernels walk their operands with iterators that stop at the
    // end of the data; these two lengths are what makes them run full count.
    assert_eq!(a.data.len(), m * k, "left operand shape mismatch");
    assert_eq!(b.data.len(), k * n, "right operand shape mismatch");
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if regime == Regime::InPlace {
        gemm_in_place(out, m, n, k, a, b, Add);
        return;
    }
    let threads = effective_bands(m, threads);
    if threads <= 1 {
        gemm_band(out, 0, m, n, k, a, b);
        return;
    }
    // Split rows into `threads` contiguous bands on MR boundaries. Band
    // geometry is a pure function of (m, threads); which OS thread runs
    // which band never affects the arithmetic.
    let rows_per = (m.div_ceil(threads)).div_ceil(MR) * MR;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(rows_per * n)
        .enumerate()
        .map(|(band_idx, band)| {
            let row0 = band_idx * rows_per;
            let band_rows = band.len() / n;
            Box::new(move || gemm_band(band, row0, band_rows, n, k, a, b))
                as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::global().run_scoped(jobs);
}

/// How many row bands the blocked regime actually uses for `m` rows.
fn effective_bands(m: usize, requested: usize) -> usize {
    if requested <= 1 || m < 2 * MR {
        1
    } else {
        requested.min(m.div_ceil(MR))
    }
}

/// The in-place regime: the whole product on the calling thread, no
/// operand packed unless a B tile is ragged or strided. `wb` says how a
/// finished panel sum joins `out`: [`Add`] into a zeroed `out`, or
/// [`Axpy`] into the weights, which needs a single panel (`k <= KC`).
fn gemm_in_place<W: WriteBack>(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    wb: W,
) {
    let tiles = if a.transposed {
        &Tiles::<W>::COLS
    } else {
        &Tiles::<W>::ROWS
    };
    PACK.with(|pack| {
        let bpanel = &mut pack.borrow_mut().1;
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for jr in (0..n).step_by(NR) {
                let n_live = NR.min(n - jr);
                let b_tile = if !b.transposed && n_live == NR {
                    Strided {
                        data: &b.data[pc * b.ld + jr..],
                        ld: b.ld,
                    }
                } else {
                    grow(bpanel, KC * NR);
                    pack_panels::<NR>(bpanel, b, !b.transposed, jr, n_live, pc, kc);
                    Strided {
                        data: &bpanel[..kc * NR],
                        ld: NR,
                    }
                };
                for ir in (0..m).step_by(MR) {
                    let a_tile = Strided {
                        data: if a.transposed {
                            &a.data[pc * a.ld + ir..]
                        } else {
                            &a.data[ir * a.ld + pc..]
                        },
                        ld: a.ld,
                    };
                    let c = &mut out[ir * n + jr..];
                    tiles[MR.min(m - ir) - 1](kc, a_tile, b_tile, c, n, n_live, wb);
                }
            }
        }
    });
}

/// The blocked regime for rows `[row0, row0 + rows)` of the product, into
/// `band` (the row-major slice for exactly those rows, already zeroed).
fn gemm_band(
    band: &mut [f32],
    row0: usize,
    rows: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
) {
    PACK.with(|pack| {
        let mut pack = pack.borrow_mut();
        let (apack, bpack) = &mut *pack;
        grow(apack, MC * KC);
        grow(bpack, KC * NC);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_panels::<NR>(bpack, b, !b.transposed, jc, nc, pc, kc);
                for ic in (0..rows).step_by(MC) {
                    let mc = MC.min(rows - ic);
                    pack_panels::<MR>(apack, a, a.transposed, row0 + ic, mc, pc, kc);
                    block_kernel(band, ic, mc, jc, nc, n, kc, apack, bpack);
                }
            }
        }
    });
}

fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packs lanes `[lane0, lane0 + lanes)` (rows of A, columns of B) over
/// depth `[k0, k0 + kc)` into `W`-wide micro-panels, k-major: panel `p`
/// holds lanes `p*W..p*W+W`, one `W`-slot group per k-step, so the tile
/// kernel streams it contiguously. Slots past `lanes` are zero.
///
/// `k_major` says how the source lies: one contiguous run of lanes per
/// k-step (a transposed A, a row-major B — copied run by run), or each lane
/// contiguous along `k` (a row-major A, a transposed B — gathered down its
/// slot column).
fn pack_panels<const W: usize>(
    dst: &mut [f32],
    src: View<'_>,
    k_major: bool,
    lane0: usize,
    lanes: usize,
    k0: usize,
    kc: usize,
) {
    let panels = dst[..lanes.div_ceil(W) * kc * W].chunks_exact_mut(kc * W);
    for (p, panel) in panels.enumerate() {
        let first = lane0 + p * W;
        let live = W.min(lanes - p * W);
        if live < W {
            panel.fill(0.0);
        }
        if k_major {
            for (kk, slots) in panel.chunks_exact_mut(W).enumerate() {
                let at = (k0 + kk) * src.ld + first;
                slots[..live].copy_from_slice(&src.data[at..at + live]);
            }
        } else {
            for c in 0..live {
                let at = (first + c) * src.ld + k0;
                let lane = &src.data[at..at + kc];
                for (slots, &v) in panel.chunks_exact_mut(W).zip(lane) {
                    slots[c] = v;
                }
            }
        }
    }
}

/// All tile-kernel invocations for one packed (A block, B block) pair.
#[allow(clippy::too_many_arguments)]
fn block_kernel(
    band: &mut [f32],
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    ldc: usize,
    kc: usize,
    apack: &[f32],
    bpack: &[f32],
) {
    for q in 0..nc.div_ceil(NR) {
        let b_tile = Strided {
            data: &bpack[q * kc * NR..(q + 1) * kc * NR],
            ld: NR,
        };
        let n_live = NR.min(nc - q * NR);
        for p in 0..mc.div_ceil(MR) {
            let a_tile = Strided {
                data: &apack[p * kc * MR..(p + 1) * kc * MR],
                ld: MR,
            };
            let c = &mut band[(ic + p * MR) * ldc + jc + q * NR..];
            Tiles::<Add>::COLS[MR.min(mc - p * MR) - 1](kc, a_tile, b_tile, c, ldc, n_live, Add);
        }
    }
}

/// One register-tile row: `acc += ar * b`, element-wise over `NR` lanes.
///
/// Rust never contracts `a * b + c` into a fused multiply-add (there is no
/// `-ffast-math`), which caps a mul+add kernel at half the FMA ports'
/// throughput. `f32::mul_add` emits the fused instruction directly — but
/// only pays off when the target actually has FMA; without it, `mul_add`
/// lowers to a (correctly-rounded, ~100× slower) libm call, so the
/// portable build keeps the separate mul+add form. The two forms round
/// differently; determinism is guaranteed *per build*, which is all the
/// bit-exactness tests (regimes and thread counts within one binary)
/// require.
#[inline(always)]
fn fma_row(acc: &mut [f32; NR], ar: f32, b: &[f32; NR]) {
    if cfg!(target_feature = "fma") {
        for c in 0..NR {
            acc[c] = ar.mul_add(b[c], acc[c]);
        }
    } else {
        for c in 0..NR {
            acc[c] += ar * b[c];
        }
    }
}

/// How a finished panel sum joins its output row. Each tile kernel is
/// monomorphised per write-back, so the plain product's kernels carry
/// neither a branch nor a scalar for it.
trait WriteBack: Copy {
    fn row(self, c_row: &mut [f32], acc: &[f32; NR]);
}

/// `c += acc`, into an output zeroed before the first panel.
#[derive(Clone, Copy)]
struct Add;

impl WriteBack for Add {
    #[inline(always)]
    fn row(self, c_row: &mut [f32], acc: &[f32; NR]) {
        for (c, &v) in c_row.iter_mut().zip(acc) {
            *c += v;
        }
    }
}

/// `w += alpha * (0.0 + acc)`: the sum of the only panel applied to the
/// weights. `*` and `+` stay separate, as in `Matrix::axpy`.
#[derive(Clone, Copy)]
struct Axpy(f32);

impl WriteBack for Axpy {
    #[inline(always)]
    fn row(self, c_row: &mut [f32], acc: &[f32; NR]) {
        for (w, &v) in c_row.iter_mut().zip(acc) {
            *w += self.0 * (0.0 + v);
        }
    }
}

/// Equal-width runs at a fixed stride: run `i` is `data[i * ld..][..W]`.
/// Covers a packed panel (`ld == W`) and an operand read in place
/// (`ld` = its storage row length) alike.
#[derive(Clone, Copy)]
struct Strided<'a> {
    data: &'a [f32],
    ld: usize,
}

impl<'a> Strided<'a> {
    /// The first `count` runs. `chunks` proves each run's start to LLVM
    /// once, so the tile loop carries no index arithmetic.
    #[inline(always)]
    fn runs<const W: usize>(self, count: usize) -> impl Iterator<Item = &'a [f32; W]> {
        self.data
            .chunks(self.ld)
            .take(count)
            .map(|run| run.first_chunk::<W>().expect("run narrower than the tile"))
    }
}

/// A register-tile kernel for `R` live rows: writes `A_tile · B_tile` over
/// one `kc`-deep panel back into the `R x n_live` corner of `c` (row stride
/// `ldc`) as the [`WriteBack`] says. `b` holds `kc` runs of `NR`; what `a`
/// holds depends on the family — see `tile_kernels!`.
type TileKernel<W> = fn(usize, Strided<'_>, Strided<'_>, &mut [f32], usize, usize, W);

/// The tile kernels of both families for one write-back.
struct Tiles<W>(PhantomData<W>);

/// Generates the tile kernels for 1..=`MR` live rows, in two families that
/// differ only in how A's broadcast scalars are found:
///
/// * `cols`: `a` holds `kc` runs of `R` — one column of the tile per
///   k-step (a packed A panel, or a transposed A in place);
/// * `rows`: `a` holds `R` runs of `kc` — one pre-sliced row per tile row,
///   walked along `k` (a row-major A in place).
///
/// Each accumulator row is an independent named local: a 2D `acc[r][c]`
/// indexed in a loop over `r` defeats LLVM's scalar replacement once the
/// tile outgrows ~64 floats, spilling accumulators to the stack per
/// iteration, and a const-generic `[[f32; NR]; R]` does not escape that
/// (1.7× slower on the 10×192·192×32 product). Named rows keep the whole
/// tile in vector registers, eight rows × one k-step per iteration giving
/// 16 independent FMA chains. A's rows are sliced to the panel before the
/// k-loop, so each broadcast is a load, not an index computation.
macro_rules! tile_kernels {
    ($( $cols:ident $rows:ident $r:literal: $( $i:literal $acc:ident $a:ident ),+ ; )+) => {
        $(
            fn $cols<W: WriteBack>(
                kc: usize,
                a: Strided<'_>,
                b: Strided<'_>,
                c: &mut [f32],
                ldc: usize,
                n_live: usize,
                wb: W,
            ) {
                $( let mut $acc = [0.0f32; NR]; )+
                for (ak, bk) in a.runs::<$r>(kc).zip(b.runs::<NR>(kc)) {
                    $( fma_row(&mut $acc, ak[$i], bk); )+
                }
                $( wb.row(&mut c[$i * ldc..][..n_live], &$acc); )+
            }

            fn $rows<W: WriteBack>(
                kc: usize,
                a: Strided<'_>,
                b: Strided<'_>,
                c: &mut [f32],
                ldc: usize,
                n_live: usize,
                wb: W,
            ) {
                $(
                    let mut $acc = [0.0f32; NR];
                    let $a = &a.data[$i * a.ld..][..kc];
                )+
                for (kk, bk) in b.runs::<NR>(kc).enumerate() {
                    $( fma_row(&mut $acc, $a[kk], bk); )+
                }
                $( wb.row(&mut c[$i * ldc..][..n_live], &$acc); )+
            }
        )+

        impl<W: WriteBack> Tiles<W> {
            /// `COLS[r - 1]` is the `cols` kernel for `r` live rows.
            const COLS: [TileKernel<W>; MR] = [$( $cols::<W> ),+];
            /// `ROWS[r - 1]` is the `rows` kernel for `r` live rows.
            const ROWS: [TileKernel<W>; MR] = [$( $rows::<W> ),+];
        }
    };
}

tile_kernels! {
    cols1 rows1 1: 0 c0 a0;
    cols2 rows2 2: 0 c0 a0, 1 c1 a1;
    cols3 rows3 3: 0 c0 a0, 1 c1 a1, 2 c2 a2;
    cols4 rows4 4: 0 c0 a0, 1 c1 a1, 2 c2 a2, 3 c3 a3;
    cols5 rows5 5: 0 c0 a0, 1 c1 a1, 2 c2 a2, 3 c3 a3, 4 c4 a4;
    cols6 rows6 6: 0 c0 a0, 1 c1 a1, 2 c2 a2, 3 c3 a3, 4 c4 a4, 5 c5 a5;
    cols7 rows7 7: 0 c0 a0, 1 c1 a1, 2 c2 a2, 3 c3 a3, 4 c4 a4, 5 c5 a5, 6 c6 a6;
    cols8 rows8 8: 0 c0 a0, 1 c1 a1, 2 c2 a2, 3 c3 a3, 4 c4 a4, 5 c5 a5, 6 c6 a6, 7 c7 a7;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(m: usize, n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..m * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let aik = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += aik * b[kk * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn both_regimes_match_reference_on_awkward_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (1, 17, 5),
            (17, 1, 3),
            (5, 9, 1),
            (3, 8, 4),
            (13, 21, 34),
            (65, 33, 70),
            (4, 260, 2),
        ] {
            let a = dense(m, k, 1);
            let b = dense(k, n, 2);
            let want = reference(m, n, k, &a, &b);
            for regime in [Regime::InPlace, Regime::Blocked] {
                let mut out = vec![0.0f32; m * n];
                let (av, bv) = (View::normal(&a, k), View::normal(&b, n));
                gemm_in_regime(regime, &mut out, m, n, k, av, bv, 1);
                for (got, want) in out.iter().zip(&want) {
                    assert!(
                        (got - want).abs() <= 1e-4,
                        "{regime:?} {m}x{n}x{k}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn transposed_views_read_the_right_elements() {
        // A is stored 3x2; its transpose is the logical 2x3 operand.
        let a_store = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // rows (1,2),(3,4),(5,6)
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]; // 3x2
        let mut out = vec![0.0f32; 4];
        gemm_into(
            &mut out,
            2,
            2,
            3,
            View::transposed(&a_store, 2),
            View::normal(&b, 2),
            1,
        );
        // Aᵀ = [[1,3,5],[2,4,6]]; Aᵀ·B = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(out, vec![6.0, 8.0, 8.0, 10.0]);
    }

    #[test]
    fn zero_depth_product_is_all_zeros() {
        let a: [f32; 0] = [];
        let b: [f32; 0] = [];
        let mut out = vec![7.0f32; 6];
        gemm_into(
            &mut out,
            2,
            3,
            0,
            View::normal(&a, 0),
            View::normal(&b, 3),
            4,
        );
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn band_split_depends_on_rows_and_request_only() {
        assert_eq!(effective_bands(4, 8), 1, "too few rows to split");
        assert_eq!(effective_bands(256, 1), 1);
        assert_eq!(effective_bands(256, 2), 2);
        assert_eq!(effective_bands(128, 999), 16, "capped by rows/MR");
    }

    #[test]
    fn regime_is_chosen_from_the_shape_alone() {
        assert_eq!(Regime::for_shape(10, 32, 192), Regime::InPlace);
        assert_eq!(Regime::for_shape(128, 128, 128), Regime::InPlace);
        assert_eq!(Regime::for_shape(128, 128, 129), Regime::Blocked);
        assert_eq!(Regime::for_shape(256, 256, 256), Regime::Blocked);
        assert_eq!(Regime::for_shape(usize::MAX, 2, 2), Regime::Blocked);
    }
}
