//! Runtime SIMD dispatch for the dense hot-path kernels.
//!
//! The release build targets baseline x86-64 (SSE2), so a kernel compiled
//! the ordinary way never uses AVX. [`dispatch!`] takes one kernel body,
//! written once as plain scalar Rust, and stamps out a portable copy plus
//! copies compiled with `#[target_feature(enable = "avx2")]` and
//! `#[target_feature(enable = "avx512f")]`. The copy to run is chosen by
//! the level [`detected`] once per process. Non-x86_64 targets compile the
//! portable copy only.
//!
//! **Bitwise contract.** A dispatched body uses only IEEE `+ - * / sqrt`
//! in source order. Rust neither reassociates floating-point arithmetic
//! nor contracts `a * b + c` into a fused multiply-add, so the wider copies
//! differ from the portable one only in how many independent lanes one
//! instruction carries. Every level returns the same bits; the kernels'
//! unit tests compare each level the host supports against the portable
//! copy.

use std::sync::OnceLock;

/// An instruction-set level a dispatched kernel can run at, lowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // only x86_64 detects the SIMD levels
pub enum Level {
    /// The build's baseline target features.
    Portable,
    /// AVX2 (256-bit lanes).
    Avx2,
    /// AVX-512F (512-bit lanes).
    Avx512,
}

/// The highest level this host supports, detected on first use.
pub fn detected() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// Every level this host can run, lowest first; always starts with
/// [`Level::Portable`]. Tests compare each against the portable copy.
#[cfg(test)]
pub fn supported() -> Vec<Level> {
    [Level::Portable, Level::Avx2, Level::Avx512]
        .into_iter()
        .filter(|&l| l <= detected())
        .collect()
}

/// A level is reported only if the CPU and OS support every feature its
/// copy is compiled with: `avx512f` also turns on `avx2`, `fma` and
/// `f16c`.
fn detect() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = is_x86_feature_detected!("avx2");
        if avx2
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("fma")
            && is_x86_feature_detected!("f16c")
        {
            return Level::Avx512;
        }
        if avx2 {
            return Level::Avx2;
        }
    }
    Level::Portable
}

/// Define `fn name(level: Level, args..) -> ret` that runs `body` compiled
/// for `level`, clamped to [`detected`]. The body is an `#[inline(always)]`
/// function, so each `#[target_feature]` copy inlines and vectorizes it
/// for its own instruction set.
macro_rules! dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name(level: $crate::kernels::simd::Level, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f")]
            fn avx512($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            match level.min($crate::kernels::simd::detected()) {
                // SAFETY: the level is clamped to `detected()`, which
                // reports Avx512 only after `is_x86_feature_detected!`
                // confirmed avx512f, avx2, fma and f16c on this CPU.
                #[cfg(target_arch = "x86_64")]
                $crate::kernels::simd::Level::Avx512 => unsafe { avx512($($arg),*) },
                // SAFETY: as above; Avx2 is reported only after
                // `is_x86_feature_detected!("avx2")`.
                #[cfg(target_arch = "x86_64")]
                $crate::kernels::simd::Level::Avx2 => unsafe { avx2($($arg),*) },
                _ => body($($arg),*),
            }
        }
    };
}

pub(crate) use dispatch;

#[cfg(test)]
mod tests {
    use super::*;

    dispatch! {
        fn scaled_sum(xs: &[f64], f: f64) -> f64 {
            let mut s = 0.0;
            for &x in xs {
                s += x * f;
            }
            s
        }
    }

    #[test]
    fn portable_is_always_supported_and_levels_ascend() {
        let levels = supported();
        assert_eq!(levels[0], Level::Portable);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*levels.last().unwrap(), detected());
    }

    #[test]
    fn every_level_runs_the_same_body() {
        let xs: Vec<f64> = (0..37).map(|i| (i as f64).sin() * 1e3).collect();
        let want = scaled_sum(Level::Portable, &xs, 0.1).to_bits();
        for level in supported() {
            assert_eq!(scaled_sum(level, &xs, 0.1).to_bits(), want, "{level:?}");
        }
        // Levels above the host's are clamped, never executed as asked.
        assert_eq!(scaled_sum(Level::Avx512, &xs, 0.1).to_bits(), want);
    }
}
