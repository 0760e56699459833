//! Softmax (always executed on the CPU in HTVM deployments).

use htvm_ir::Tensor;

/// Softmax over the last dimension, returning quantized probabilities.
///
/// Inputs are treated as raw integer logits. The result is quantized back to
/// the input dtype's range so that every row sums to exactly `hi`, the
/// dtype's maximum (e.g. 127 for `i8`), matching how TFLite emits an int8
/// softmax (up to the zero-point convention, which is irrelevant for arg-max
/// style consumers). Computation uses the numerically stable max-subtracted
/// form in `f64` — with the subtraction widened to `i64`, since `i32` logits
/// near `i32::MIN` would overflow an `i32` subtraction — and quantization is
/// largest-remainder: each probability takes its floor and the leftover
/// units go to the largest fractional remainders (ties to the lower index),
/// so flat rows can never collapse to all zeros. Fully deterministic.
///
/// # Panics
///
/// Panics if the input has rank 0.
#[must_use]
pub fn softmax(x: &Tensor) -> Tensor {
    assert!(x.shape().rank() >= 1, "softmax requires rank >= 1");
    let dims = x.shape().dims();
    let n = *dims.last().expect("rank checked above");
    let outer: usize = dims[..dims.len() - 1].iter().product();
    let (_, hi) = x.dtype().range();
    let mut out = x.clone();
    let data = out.data_mut();
    // Per-row buffers, reused across rows. `frac` holds each element's
    // exponential, then its target share of `hi`, then the fractional
    // remainder of that target; `vals` holds the floors.
    let mut frac: Vec<f64> = Vec::with_capacity(n);
    let mut vals: Vec<i64> = Vec::with_capacity(n);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for row in 0..outer {
        let s = &mut data[row * n..(row + 1) * n];
        let max = s.iter().copied().max().unwrap_or(0);
        frac.clear();
        frac.extend(
            s.iter()
                .map(|&v| ((i64::from(v) - i64::from(max)) as f64).exp()),
        );
        let sum: f64 = frac.iter().sum();
        vals.clear();
        for f in &mut frac {
            let target = *f / sum * f64::from(hi);
            let floor = target.floor() as i64;
            vals.push(floor);
            *f = target - floor as f64;
        }
        // Each floor is at most its target and the targets sum to `hi`
        // (modulo sub-unit float error), so the leftover is in [0, n].
        let leftover = ((i64::from(hi) - vals.iter().sum::<i64>()).max(0) as usize).min(n);
        if leftover > 0 {
            // Remainder descending, then index ascending: a strict total
            // order, so the `leftover` smallest elements under it are one
            // fixed set — the prefix a full sort would give — and
            // selection finds it without ordering the rest.
            order.clear();
            order.extend(0..n);
            order.select_nth_unstable_by(leftover - 1, |&a, &b| {
                frac[b].total_cmp(&frac[a]).then(a.cmp(&b))
            });
            for &i in &order[..leftover] {
                vals[i] += 1;
            }
        }
        for (v, q) in s.iter_mut().zip(&vals) {
            *v = *q as i32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::DType;

    /// Largest-remainder softmax by a full index sort over (remainder
    /// descending, index ascending), with fresh per-row buffers: the
    /// oracle [`softmax`] must match bit for bit.
    fn softmax_oracle(x: &Tensor) -> Tensor {
        let dims = x.shape().dims();
        let n = *dims.last().expect("rank >= 1");
        let outer: usize = dims[..dims.len() - 1].iter().product();
        let (_, hi) = x.dtype().range();
        let mut out = x.clone();
        let data = out.data_mut();
        for row in 0..outer {
            let s = &mut data[row * n..(row + 1) * n];
            let max = s.iter().copied().max().unwrap_or(0);
            let exps: Vec<f64> = s
                .iter()
                .map(|&v| ((i64::from(v) - i64::from(max)) as f64).exp())
                .collect();
            let sum: f64 = exps.iter().sum();
            let targets: Vec<f64> = exps.iter().map(|e| e / sum * f64::from(hi)).collect();
            let floors: Vec<i64> = targets.iter().map(|t| t.floor() as i64).collect();
            let leftover = (i64::from(hi) - floors.iter().sum::<i64>()).max(0) as usize;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let ra = targets[a] - floors[a] as f64;
                let rb = targets[b] - floors[b] as f64;
                rb.total_cmp(&ra).then(a.cmp(&b))
            });
            let mut vals = floors;
            for &i in order.iter().take(leftover.min(n)) {
                vals[i] += 1;
            }
            for (v, q) in s.iter_mut().zip(&vals) {
                *v = *q as i32;
            }
        }
        out
    }

    #[test]
    fn selection_matches_the_sorting_oracle() {
        // Seeded sweep over every width in 1..=300 (256 is the attention
        // row), three rows per tensor so the reused row buffers carry
        // state from one row into the next. Logit families: full-range i8,
        // i16 and i32; narrow i8 (requantized attention scores); flat
        // rows; one dominant logit over a flat floor; and mixes of the
        // i32 extremes.
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || -> u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 16
        };
        let mut uniform = move |lo: i32, hi: i32| -> i32 {
            let span = (i64::from(hi) - i64::from(lo) + 1) as u64;
            (i64::from(lo) + (next() % span) as i64) as i32
        };
        const EXTREMES: [i32; 7] = [i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        for n in 1usize..=300 {
            for family in 0..7 {
                let dtype = match family {
                    1 => DType::I16,
                    2 | 6 => DType::I32,
                    _ => DType::I8,
                };
                let vals: Vec<i32> = (0..3 * n)
                    .map(|j| {
                        let (row, i) = (j / n, j % n);
                        match family {
                            0 => uniform(i8::MIN.into(), i8::MAX.into()),
                            1 => uniform(i16::MIN.into(), i16::MAX.into()),
                            2 => uniform(i32::MIN, i32::MAX),
                            3 => uniform(-8, 7),
                            4 => row as i32 * 60 - 60,
                            5 if i == (row * 7 + n / 2) % n => 90,
                            5 => -3,
                            _ => EXTREMES[(j * 5 + n) % EXTREMES.len()],
                        }
                    })
                    .collect();
                let x = Tensor::new(dtype, &[3, n], vals).unwrap();
                assert_eq!(
                    softmax(&x),
                    softmax_oracle(&x),
                    "family {family}, width {n}"
                );
            }
        }
    }

    #[test]
    fn uniform_logits_give_uniform_probabilities() {
        let x = Tensor::new(DType::I8, &[4], vec![5, 5, 5, 5]).unwrap();
        let y = softmax(&x);
        // 127/4 = 31.75: three rounded-up units land on the lowest
        // indices so the row sums to exactly 127.
        assert_eq!(y.data(), &[32, 32, 32, 31]);
        assert_eq!(y.data().iter().sum::<i32>(), 127);
    }

    #[test]
    fn dominant_logit_saturates() {
        let x = Tensor::new(DType::I8, &[3], vec![100, 0, 0]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data()[0], 127);
        assert_eq!(y.data()[1], 0);
    }

    #[test]
    fn argmax_is_preserved() {
        let x = Tensor::new(DType::I32, &[5], vec![3, -1, 7, 7, 0]).unwrap();
        let y = softmax(&x);
        let max = y.data().iter().copied().max().unwrap();
        // The two tied logits split the last quantization unit (the row
        // must sum to `hi` exactly), but both dominate every other entry.
        assert_eq!(y.data()[2], max);
        assert!((y.data()[2] - y.data()[3]).abs() <= 1);
        assert!(y.data()[3] > y.data()[0]);
        assert!(y.data()[3] > y.data()[1]);
        assert!(y.data()[3] > y.data()[4]);
    }

    #[test]
    fn rows_are_independent() {
        let x = Tensor::new(DType::I8, &[2, 2], vec![10, 0, 0, 10]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data()[0], y.data()[3]);
        assert_eq!(y.data()[1], y.data()[2]);
        assert!(y.data()[0] > y.data()[1]);
    }

    #[test]
    fn extreme_i32_logits_do_not_overflow() {
        // Regression: `v - max` was computed in i32, so a logit near
        // i32::MIN with a positive max overflowed the subtraction (debug
        // panic, release wraparound → garbage probabilities).
        let x = Tensor::new(DType::I32, &[4], vec![i32::MIN, i32::MIN + 1, 10, i32::MAX]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data()[3], i32::MAX, "dominant logit takes all mass");
        assert_eq!(y.data()[0], 0);
        assert_eq!(y.data()[1], 0);
        assert_eq!(y.data()[2], 0);
    }

    #[test]
    fn flat_wide_rows_do_not_collapse_to_zero() {
        // Regression: 256 flat i8 logits each quantize to round(127/256)
        // = 0 under naive rounding — the whole row silently vanished.
        let x = Tensor::new(DType::I8, &[256], vec![3; 256]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data().iter().sum::<i32>(), 127);
        assert!(y.data().iter().all(|&v| v == 0 || v == 1));
    }

    #[test]
    fn random_rows_sum_to_hi_and_preserve_argmax() {
        // Deterministic LCG over many shapes/dtypes: every row must sum
        // to exactly `hi` and a strict argmax must stay the (possibly
        // shared) maximum after quantization.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: i64| -> i32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as i64 % bound) as i32
        };
        for &(dtype, span) in &[
            (DType::I8, 128i64),
            (DType::I32, i64::from(i32::MAX)),
            (DType::I32, 64),
        ] {
            for n in [1usize, 2, 7, 64, 300] {
                let vals: Vec<i32> = (0..n).map(|_| next(span) - (span / 2) as i32).collect();
                let x = Tensor::new(dtype, &[n], vals.clone()).unwrap();
                let y = softmax(&x);
                let (_, hi) = dtype.range();
                assert_eq!(
                    y.data().iter().map(|&v| i64::from(v)).sum::<i64>(),
                    i64::from(hi),
                    "row must sum to hi for dtype {dtype:?}, n {n}"
                );
                let arg = (0..n).max_by_key(|&i| vals[i]).unwrap();
                let out_max = y.data().iter().copied().max().unwrap();
                if vals.iter().filter(|&&v| v == vals[arg]).count() == 1 {
                    assert_eq!(y.data()[arg], out_max, "strict argmax preserved");
                }
                assert!(y.data().iter().all(|&v| v >= 0));
            }
        }
    }
}
