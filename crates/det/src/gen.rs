//! Composable value generators for the property-test harness.
//!
//! A [`Gen<T>`] is a pure function from a choice [`Source`] to a `T`.
//! Combinators (`map`, [`one_of`], [`weighted`], [`vec_of`], tuple
//! zips) compose generators without any per-type shrinking logic:
//! shrinking happens on the underlying choice stream (see
//! [`crate::forall`](mod@crate::forall)).

use std::rc::Rc;

use crate::rng::{Rng, Sample, SampleRange};
use crate::source::Source;

/// A generator of `T` values driven by a choice stream.
#[derive(Clone)]
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut Source) -> T>,
}

impl<T: 'static> Gen<T> {
    /// Wraps a generation function.
    pub fn new(f: impl Fn(&mut Source) -> T + 'static) -> Self {
        Gen { f: Rc::new(f) }
    }

    /// Produces one value from `source`.
    pub fn generate(&self, source: &mut Source) -> T {
        (self.f)(source)
    }

    /// A generator applying `g` to every generated value.
    #[must_use]
    pub fn map<U: 'static>(self, g: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |src| g((self.f)(src)))
    }
}

/// Always generates clones of `value`.
pub fn constant<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| value.clone())
}

/// Uniform over `T`'s whole domain (proptest's `any::<T>()`).
pub fn any<T: Sample + 'static>() -> Gen<T> {
    Gen::new(|src| src.gen::<T>())
}

/// Uniform over `range`.
pub fn in_range<T, S>(range: S) -> Gen<T>
where
    T: 'static,
    S: SampleRange<T> + Clone + 'static,
{
    Gen::new(move |src| src.gen_range(range.clone()))
}

/// Picks one of `choices` uniformly, then generates from it.
///
/// # Panics
///
/// Panics if `choices` is empty.
pub fn one_of<T: 'static>(choices: Vec<Gen<T>>) -> Gen<T> {
    assert!(!choices.is_empty(), "one_of with no choices");
    Gen::new(move |src| {
        let i = src.gen_range(0..choices.len());
        choices[i].generate(src)
    })
}

/// Picks among `choices` with the given relative weights (proptest's
/// weighted `prop_oneof!`). Lower indices correspond to smaller choice
/// words, so shrinking drifts toward the first variant.
///
/// # Panics
///
/// Panics if `choices` is empty or all weights are zero.
pub fn weighted<T: 'static>(choices: Vec<(u32, Gen<T>)>) -> Gen<T> {
    let total: u64 = choices.iter().map(|(w, _)| u64::from(*w)).sum();
    assert!(total > 0, "weighted with no weight");
    Gen::new(move |src| {
        let mut roll = src.gen_range(0..total);
        for (w, g) in &choices {
            if roll < u64::from(*w) {
                return g.generate(src);
            }
            roll -= u64::from(*w);
        }
        unreachable!("roll exceeds total weight")
    })
}

/// A `Vec` whose length is drawn from `len` and whose elements come from
/// `elem`.
pub fn vec_of<T: 'static>(elem: Gen<T>, len: impl SampleRange<usize> + Clone + 'static) -> Gen<Vec<T>> {
    Gen::new(move |src| {
        let n = src.gen_range(len.clone());
        (0..n).map(|_| elem.generate(src)).collect()
    })
}

/// Zips two generators into a tuple generator.
pub fn pair<A: 'static, B: 'static>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)> {
    Gen::new(move |src| (a.generate(src), b.generate(src)))
}

/// Zips three generators into a tuple generator.
pub fn triple<A: 'static, B: 'static, C: 'static>(
    a: Gen<A>,
    b: Gen<B>,
    c: Gen<C>,
) -> Gen<(A, B, C)> {
    Gen::new(move |src| (a.generate(src), b.generate(src), c.generate(src)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn run<T: 'static>(g: &Gen<T>, seed: u64) -> T {
        let mut src = Source::fresh(DetRng::seed_from_u64(seed));
        g.generate(&mut src)
    }

    #[test]
    fn map_composes() {
        let g = in_range(0..10u64).map(|v| v * 2);
        for seed in 0..50 {
            let v = run(&g, seed);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    #[test]
    fn vec_of_respects_length_range() {
        let g = vec_of(any::<u8>(), 1..8usize);
        for seed in 0..50 {
            let v = run(&g, seed);
            assert!((1..8).contains(&v.len()));
        }
    }

    #[test]
    fn weighted_hits_every_arm_and_respects_ratios() {
        let g = weighted(vec![(3, constant(0u8)), (1, constant(1u8))]);
        let mut counts = [0u32; 2];
        let mut src = Source::fresh(DetRng::seed_from_u64(4));
        for _ in 0..4000 {
            counts[g.generate(&mut src) as usize] += 1;
        }
        assert!(counts[0] > 2 * counts[1], "3:1 weighting skewed: {counts:?}");
        assert!(counts[1] > 0);
    }

    #[test]
    fn replay_regenerates_identical_value() {
        let g = vec_of(pair(any::<u8>(), in_range(0..1000u64)), 1..20usize);
        let mut src = Source::fresh(DetRng::seed_from_u64(77));
        let first = g.generate(&mut src);
        let mut rep = Source::replay(src.into_recorded());
        let second = g.generate(&mut rep);
        assert_eq!(first, second);
    }

    #[test]
    fn zero_stream_generates_minimal_value() {
        // The all-zeros stream is the "simplest" value by construction:
        // minimum length, minimum elements, first one_of variant.
        let g = vec_of(in_range(5..100u64), 1..10usize);
        let mut src = Source::replay(Vec::new());
        assert_eq!(g.generate(&mut src), vec![5]);
    }
}
