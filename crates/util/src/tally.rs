//! Counter sets declared once.
//!
//! A counter set is reported through four shapes: a plain `Copy` snapshot
//! a caller can diff, a lock-free twin the hot paths bump, the delta
//! between two snapshots, and the ordered words a wire codec writes.
//! [`tally!`](crate::tally!) generates all four from one list of
//! documented field names, so adding a counter is one line in its
//! declaration plus its increment site.

/// Declares a counter set: a snapshot struct of `pub u64` fields and its
/// lock-free twin of `AtomicU64` fields with the same names.
///
/// ```
/// pqr_util::tally! {
///     /// Hits and misses of some cache.
///     pub struct LookupStats / AtomicLookupStats {
///         /// Lookups served.
///         hits,
///         /// Lookups that went to the backend.
///         misses,
///     }
/// }
/// use std::sync::atomic::Ordering;
/// let live = AtomicLookupStats::default();
/// let before = live.snapshot();
/// live.hits.fetch_add(2, Ordering::Relaxed);
/// let delta = live.snapshot().since(&before);
/// assert_eq!((delta.hits, delta.misses), (2, 0));
/// assert_eq!(LookupStats::NAMES, ["hits", "misses"]);
/// ```
///
/// The snapshot derives `Debug`, `Clone`, `Copy`, `Default`, `PartialEq`
/// and `Eq`, and has:
/// - `NAMES`/`LEN`: the field names in declaration order, and their count;
/// - `since(&before)`: the field-by-field saturating delta;
/// - `Sum`: the field-by-field total of several snapshots;
/// - `words()`/`from_words(next)`: the fields as `[u64; LEN]` in
///   declaration order, and back from a reader of such words — the one
///   order every wire codec uses.
///
/// The twin has `snapshot()` (every field, `Relaxed`) and `reset()`.
#[macro_export]
macro_rules! tally {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident / $atomic:ident {
            $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $name {
            /// The field names, in declaration (and wire) order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];
            /// The number of counters.
            pub const LEN: usize = Self::NAMES.len();

            /// The field-by-field saturating delta `self − before`.
            pub fn since(&self, before: &Self) -> Self {
                Self { $( $field: self.$field.saturating_sub(before.$field), )* }
            }

            /// The counters in declaration order.
            pub fn words(&self) -> [u64; Self::LEN] {
                [$(self.$field),*]
            }

            /// Reads the counters in declaration order from `next`.
            pub fn from_words<E>(
                mut next: impl FnMut() -> ::core::result::Result<u64, E>,
            ) -> ::core::result::Result<Self, E> {
                // struct-expression fields evaluate in the order written
                Ok(Self { $( $field: next()?, )* })
            }
        }

        impl ::core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |a, b| Self { $( $field: a.$field + b.$field, )* })
            }
        }

        #[doc = concat!("The lock-free twin of [`", stringify!($name), "`].")]
        #[derive(Debug, Default)]
        $vis struct $atomic {
            $( $(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $atomic {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $name {
                $name {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }

            /// Zeroes every counter.
            pub fn reset(&self) {
                $( self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    crate::tally! {
        /// A three-field tally.
        struct Three / AtomicThree {
            /// First.
            alpha,
            /// Second.
            beta,
            /// Third.
            gamma,
        }
    }

    #[test]
    fn since_saturates_per_field() {
        let before = Three {
            alpha: 5,
            beta: 10,
            gamma: u64::MAX,
        };
        let after = Three {
            alpha: 7,
            beta: 3,
            gamma: u64::MAX,
        };
        assert_eq!(
            after.since(&before),
            Three {
                alpha: 2,
                beta: 0,
                gamma: 0
            }
        );
        assert_eq!(before.since(&Three::default()), before);
    }

    #[test]
    fn sum_adds_per_field() {
        let one = Three {
            alpha: 1,
            beta: 2,
            gamma: 3,
        };
        let total: Three = [one, one, Three::default()].into_iter().sum();
        assert_eq!(
            total,
            Three {
                alpha: 2,
                beta: 4,
                gamma: 6
            }
        );
        assert_eq!(std::iter::empty::<Three>().sum::<Three>(), Three::default());
    }

    #[test]
    fn snapshot_reads_every_field_and_reset_zeroes_them() {
        let live = AtomicThree::default();
        live.alpha.fetch_add(1, Ordering::Relaxed);
        live.beta.fetch_add(20, Ordering::Relaxed);
        live.gamma.fetch_add(300, Ordering::Relaxed);
        assert_eq!(
            live.snapshot(),
            Three {
                alpha: 1,
                beta: 20,
                gamma: 300
            }
        );
        live.reset();
        assert_eq!(live.snapshot(), Three::default());
    }

    #[test]
    fn words_roundtrip_in_declaration_order() {
        assert_eq!(Three::NAMES, ["alpha", "beta", "gamma"]);
        assert_eq!(Three::LEN, 3);
        let t = Three {
            alpha: 1,
            beta: 2,
            gamma: 3,
        };
        assert_eq!(t.words(), [1, 2, 3]);
        let mut it = t.words().into_iter();
        assert_eq!(Three::from_words(|| it.next().ok_or(())), Ok(t));
        // a short reader is an error, not a partial tally
        let mut short = [1u64, 2].into_iter();
        assert_eq!(Three::from_words(|| short.next().ok_or(())), Err(()));
    }
}
