//! The event loop's random draws, taken a block at a time.
//!
//! A run consumes one word of its seeded [`StdRng`] per draw, in event
//! order, and most draws are exponentials whose transform is a libm
//! `ln_1p` call of about 20 ns. Made one at a time inside the event loop,
//! each call, with the register spills around it, sits on the path from
//! one event to the next. [`DrawBlock`] instead takes [`BLOCK`] words at
//! once and computes every word's unit exponential in a loop of its own,
//! then hands the words out in stream order. A consumer that wants an
//! exponential takes the word's precomputed unit exponential and divides
//! by its rate; one that wants the uniform itself (the Pareto inverse
//! cdfs) takes the word's uniform. Either way the word and the arithmetic
//! are those of drawing straight from the generator, so every draw is bit
//! for bit the same ([`ExpSampler::unit`] is the one definition of the
//! transform).
//!
//! [`Draw`] is what the samplers take: the block in the event loop, a
//! plain [`StdRng`] anywhere else.

use bevra_load::ExpSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Words per refill. A refill's cost per word does not depend on it; at
/// 1,024 the block's two arrays take 16 KiB and stay in L1, and the lane
/// timed no slower than with 32, 256 or 4,096 words (DESIGN.md §8.4).
pub const BLOCK: usize = 1_024;

/// A source of the simulator's random draws. Each call consumes the next
/// word of one stream, as a uniform on `[0, 1)` or as its unit
/// exponential.
pub trait Draw {
    /// The next word as a uniform on `[0, 1)`: `random::<f64>()`.
    fn uniform(&mut self) -> f64;

    /// The next word as a unit exponential: [`ExpSampler::unit`] of its
    /// uniform.
    fn unit_exp(&mut self) -> f64;

    /// The next word as a draw from `s`, bit for bit `s.sample` on the
    /// same word.
    #[inline]
    fn exp(&mut self, s: ExpSampler) -> f64 {
        self.unit_exp() / s.rate
    }
}

impl Draw for StdRng {
    #[inline]
    fn uniform(&mut self) -> f64 {
        self.random()
    }

    #[inline]
    fn unit_exp(&mut self) -> f64 {
        ExpSampler::unit(self.random())
    }
}

/// The words of one seeded [`StdRng`], drawn [`BLOCK`] at a time with
/// their unit exponentials precomputed. Hands out exactly the stream the
/// generator would.
pub struct DrawBlock {
    rng: StdRng,
    /// Index of the next word to hand out; [`BLOCK`] means empty.
    next: usize,
    uniform: Box<[f64; BLOCK]>,
    unit_exp: Box<[f64; BLOCK]>,
}

impl DrawBlock {
    /// The stream of `StdRng::seed_from_u64(seed)`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            next: BLOCK,
            uniform: Box::new([0.0; BLOCK]),
            unit_exp: Box::new([0.0; BLOCK]),
        }
    }

    /// The index of the next word, refilling first when the block is
    /// spent. The returned index is below [`BLOCK`] on both paths, so the
    /// reads need no bounds check.
    #[inline]
    fn take(&mut self) -> usize {
        let mut i = self.next;
        if i >= BLOCK {
            self.refill();
            i = 0;
        }
        self.next = i + 1;
        i
    }

    /// Draw the next [`BLOCK`] words and their unit exponentials. Kept out
    /// of line so the consumers' fast path stays small.
    #[inline(never)]
    fn refill(&mut self) {
        for u in self.uniform.iter_mut() {
            *u = self.rng.random();
        }
        for (e, &u) in self.unit_exp.iter_mut().zip(self.uniform.iter()) {
            *e = ExpSampler::unit(u);
        }
    }
}

impl Draw for DrawBlock {
    #[inline]
    fn uniform(&mut self) -> f64 {
        let i = self.take();
        self.uniform[i]
    }

    #[inline]
    fn unit_exp(&mut self) -> f64 {
        let i = self.take();
        self.unit_exp[i]
    }
}
