//! Shape-based kernel dispatch: which implementation tier runs a given
//! convolution or dense call, and across how many threads.
//!
//! Every tier computes the *same multiset of `i32` products* and combines
//! them with `wrapping_add`, which is associative and commutative, so the
//! choice (and the thread count) can never change a single output bit —
//! only the wall time. The differential proptests in `tests/properties.rs`
//! enforce this across random shapes, strides, paddings and dtypes.

use crate::gemm::DEFAULT_KC;
use std::num::NonZeroUsize;

/// An implementation tier for the conv/dense kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The original scalar loops with per-element bounds checks. Kept as
    /// the oracle every faster tier is differentially tested against.
    Reference,
    /// The fast loops of kernels with no GEMM form: padding-free interior
    /// spans for depthwise convolution (flat slice zips, no bounds checks),
    /// plain dot products for small dense blocks, blocked matmul loops. A
    /// standard convolution given this tier runs [`KernelTier::Im2colGemm`].
    Direct,
    /// im2col patch materialization + the cache-blocked, register-tiled
    /// GEMM in [`crate::gemm_accumulate`]. 1×1/stride-1/unpadded
    /// convolutions skip the materialization and feed the activation
    /// slab to the GEMM directly.
    Im2colGemm,
}

/// A dispatch decision: the tier to run and how many worker threads to
/// fan the output-channel range across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    /// Implementation tier.
    pub tier: KernelTier,
    /// Worker threads for output-channel blocks (1 = run inline).
    pub threads: usize,
    /// GEMM reduction block size fed to
    /// [`gemm_accumulate_blocked`](crate::gemm_accumulate_blocked); only
    /// consulted on the [`KernelTier::Im2colGemm`] tier. Defaults to
    /// [`DEFAULT_KC`](crate::DEFAULT_KC); the calibration sweep may
    /// substitute a measured-better value per shape class via
    /// [`GemmTuning`]. Bit-exactness is independent of this knob.
    pub kc: usize,
}

/// Measurement-derived GEMM block-size choices per reduction-length
/// class, the "autotuned `KC` per shape class" half of the calibration
/// artifact. Deliberately serde-free (this crate has no serde
/// dependency): callers that persist tunings store the plain
/// `(bound, kc)` pairs and rebuild with [`GemmTuning::new`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GemmTuning {
    /// `(upper bound on the reduction length kk, block size)` pairs.
    /// The first entry whose bound is `>= kk` wins; reduction lengths
    /// past every bound use [`DEFAULT_KC`](crate::DEFAULT_KC).
    classes: Vec<(usize, usize)>,
}

impl GemmTuning {
    /// Builds a tuning table from `(bound, kc)` pairs. Entries are
    /// sorted by bound; zero block sizes are treated as
    /// [`DEFAULT_KC`](crate::DEFAULT_KC).
    #[must_use]
    pub fn new(mut classes: Vec<(usize, usize)>) -> Self {
        classes.sort_unstable_by_key(|&(bound, _)| bound);
        for (_, kc) in &mut classes {
            if *kc == 0 {
                *kc = DEFAULT_KC;
            }
        }
        GemmTuning { classes }
    }

    /// The block size for a GEMM with reduction length `kk`.
    #[must_use]
    pub fn kc_for(&self, kk: usize) -> usize {
        self.classes
            .iter()
            .find(|&&(bound, _)| bound >= kk)
            .map_or(DEFAULT_KC, |&(_, kc)| kc)
    }

    /// The `(bound, kc)` pairs in ascending bound order — what a caller
    /// persists to rebuild this table later.
    #[must_use]
    pub fn classes(&self) -> &[(usize, usize)] {
        &self.classes
    }

    /// `true` when no classes were tuned (every `kk` maps to
    /// [`DEFAULT_KC`](crate::DEFAULT_KC)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Minimum multiply-accumulates before fanning a single kernel call out
/// across threads. The vendored `rayon` spawns scoped OS threads per
/// call (no pool), so parallelism must buy noticeably more than thread
/// startup; small DORY tiles always stay inline.
const PAR_MIN_MACS: usize = 2 << 20;

/// Below this many output neurons or reduction features a dense block
/// runs the plain dot-product loop instead of the GEMM.
const GEMM_MIN_ROWS: usize = 8;
const GEMM_MIN_K: usize = 4;

impl KernelPolicy {
    /// Runs everything inline with the given tier.
    #[must_use]
    pub fn sequential(tier: KernelTier) -> Self {
        KernelPolicy {
            tier,
            threads: 1,
            kc: DEFAULT_KC,
        }
    }

    /// This policy with the GEMM reduction block size replaced — how a
    /// caller holding a [`GemmTuning`] applies its per-class choice.
    #[must_use]
    pub fn with_kc(mut self, kc: usize) -> Self {
        self.kc = kc.max(1);
        self
    }

    /// Chooses the tier and thread count for a convolution call over a
    /// `k_len × (oy_len·ox_len)` output block reducing `c_len·fy·fx`
    /// inputs per element. Every shape takes the im2col GEMM: it measured
    /// faster than direct loops even on the smallest zoo tiles (see
    /// `docs/KERNELS.md`).
    #[must_use]
    pub fn for_conv(k_len: usize, c_len: usize, fy: usize, fx: usize, cols: usize) -> Self {
        let macs = k_len * c_len * fy * fx * cols;
        let threads = if macs >= PAR_MIN_MACS {
            num_threads().min(k_len).max(1)
        } else {
            1
        };
        KernelPolicy {
            tier: KernelTier::Im2colGemm,
            threads,
            kc: DEFAULT_KC,
        }
    }

    /// Chooses the tier for a dense (matvec) block of `k_len` output
    /// neurons reducing `c_len` features each. Always inline: dense
    /// layers in the zoo are far below the parallelism threshold.
    #[must_use]
    pub fn for_dense(k_len: usize, c_len: usize) -> Self {
        let tier = if k_len >= GEMM_MIN_K && c_len >= GEMM_MIN_ROWS {
            KernelTier::Im2colGemm
        } else {
            KernelTier::Direct
        };
        KernelPolicy {
            tier,
            threads: 1,
            kc: DEFAULT_KC,
        }
    }

    /// Chooses the tier for a batched matmul block of `m_len × n_len`
    /// outputs reducing `d_len` each. Both operands are runtime
    /// activations, so there is no im2col detour: the fast tier is the
    /// lockstep/streaming loops in
    /// [`matmul_accumulate_region`](crate::matmul_accumulate_region),
    /// reported as [`KernelTier::Direct`]. Always inline — DORY attention
    /// tiles sit far below the parallelism threshold.
    #[must_use]
    pub fn for_matmul(m_len: usize, n_len: usize, d_len: usize) -> Self {
        let _ = (m_len, n_len, d_len);
        KernelPolicy {
            tier: KernelTier::Direct,
            threads: 1,
            kc: DEFAULT_KC,
        }
    }

    /// Chooses the policy for a depthwise convolution over `c_len`
    /// channels (no cross-channel reduction, so the GEMM tier never
    /// applies).
    #[must_use]
    pub fn for_depthwise(c_len: usize, fy: usize, fx: usize, cols: usize) -> Self {
        let macs = c_len * fy * fx * cols;
        let threads = if macs >= PAR_MIN_MACS {
            num_threads().min(c_len).max(1)
        } else {
            1
        };
        KernelPolicy {
            tier: KernelTier::Direct,
            threads,
            kc: DEFAULT_KC,
        }
    }
}

/// The machine's logical CPU count — the documented default when
/// `HTVM_NUM_THREADS` is unset or invalid.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses an `HTVM_NUM_THREADS` value. Pure so the rejection rules are
/// unit-testable without touching the process environment.
///
/// # Errors
///
/// Anything that is not a positive integer — `0`, negatives, non-numeric
/// strings, empty — is an error carrying a human-readable reason.
pub fn parse_num_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "HTVM_NUM_THREADS={trimmed:?} is zero; need a positive thread count"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "HTVM_NUM_THREADS={trimmed:?} is not a positive integer"
        )),
    }
}

/// Prints `warning` to stderr the first time each distinct message is
/// seen. The kernels re-read the environment on every dispatch (so tests
/// can flip the variable mid-process), but a long-lived serving process
/// with a misconfigured environment must not log on every layer of every
/// job.
fn warn_once(warning: &str) {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static SEEN: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let mut seen = SEEN
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if seen.insert(warning.to_owned()) {
        eprintln!("htvm-kernels: warning: {warning}");
    }
}

/// Worker threads available to the kernels: `HTVM_NUM_THREADS` when set
/// to a positive integer, otherwise the machine's logical CPU count.
/// Invalid values (zero, negative, non-numeric) warn once on stderr and
/// fall back to the CPU-count default instead of being silently
/// swallowed.
///
/// Read per call rather than cached so tests can flip the variable
/// mid-process; the kernels' outputs are bit-identical at any thread
/// count, so the setting is purely a performance knob.
#[must_use]
pub fn num_threads() -> usize {
    match std::env::var("HTVM_NUM_THREADS") {
        Ok(v) => parse_num_threads(&v).unwrap_or_else(|warning| {
            let fallback = default_threads();
            warn_once(&format!("{warning}; using {fallback} (logical CPU count)"));
            fallback
        }),
        Err(_) => default_threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_conv_shape_picks_gemm() {
        // (k, c, fy, fx, cols): large, then each side of the retired
        // direct-tier gates (cols < 32, k < 4, c·fy·fx < 8), then the
        // 1×1 MobileNet tail with a 3×3 output.
        for (k, c, fy, fx, cols) in [
            (64, 64, 3, 3, 32 * 32),
            (16, 16, 3, 3, 31),
            (3, 16, 3, 3, 64),
            (16, 7, 1, 1, 64),
            (2, 1, 3, 3, 4),
            (1, 1, 1, 1, 1),
            (256, 256, 1, 1, 9),
        ] {
            let p = KernelPolicy::for_conv(k, c, fy, fx, cols);
            assert_eq!(p.tier, KernelTier::Im2colGemm, "{:?}", (k, c, fy, fx, cols));
        }
        let tiny = KernelPolicy::for_conv(2, 1, 3, 3, 4);
        assert_eq!(tiny.threads, 1, "tiny tiles never pay thread startup");
    }

    #[test]
    fn depthwise_never_uses_gemm() {
        let p = KernelPolicy::for_depthwise(512, 3, 3, 64 * 64);
        assert_eq!(p.tier, KernelTier::Direct);
    }

    #[test]
    fn constructors_default_the_gemm_block_size() {
        assert_eq!(KernelPolicy::for_conv(64, 64, 3, 3, 1024).kc, DEFAULT_KC);
        assert_eq!(KernelPolicy::for_dense(64, 64).kc, DEFAULT_KC);
        assert_eq!(
            KernelPolicy::sequential(KernelTier::Im2colGemm)
                .with_kc(96)
                .kc,
            96
        );
        assert_eq!(
            KernelPolicy::sequential(KernelTier::Im2colGemm)
                .with_kc(0)
                .kc,
            1,
            "with_kc clamps zero to one"
        );
    }

    #[test]
    fn gemm_tuning_picks_first_class_covering_kk() {
        let t = GemmTuning::new(vec![(1024, 192), (64, 48), (256, 96)]);
        assert_eq!(
            t.classes(),
            &[(64, 48), (256, 96), (1024, 192)],
            "classes sort by bound"
        );
        assert_eq!(t.kc_for(1), 48);
        assert_eq!(t.kc_for(64), 48);
        assert_eq!(t.kc_for(65), 96);
        assert_eq!(t.kc_for(1024), 192);
        assert_eq!(t.kc_for(1025), DEFAULT_KC, "past every bound: default");
        assert_eq!(GemmTuning::default().kc_for(128), DEFAULT_KC);
        assert!(GemmTuning::default().is_empty());
    }

    #[test]
    fn gemm_tuning_treats_zero_kc_as_default() {
        let t = GemmTuning::new(vec![(128, 0)]);
        assert_eq!(t.kc_for(100), DEFAULT_KC);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn parse_num_threads_accepts_positive_integers() {
        assert_eq!(parse_num_threads("1"), Ok(1));
        assert_eq!(parse_num_threads(" 8 "), Ok(8));
        assert_eq!(parse_num_threads("128"), Ok(128));
    }

    #[test]
    fn parse_num_threads_rejects_everything_else() {
        for bad in ["0", "-2", "", "  ", "four", "2.5", "1e3", "+-1"] {
            let err = parse_num_threads(bad).unwrap_err();
            assert!(
                err.contains("HTVM_NUM_THREADS"),
                "warning should name the variable: {err}"
            );
        }
        // Zero gets the specific "need a positive" message.
        assert!(parse_num_threads("0").unwrap_err().contains("zero"));
    }
}
