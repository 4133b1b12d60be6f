//! Differential property for the simulator's draw block.
//!
//! The event loop takes its random draws from a [`DrawBlock`]: the run's
//! `StdRng` words, drawn [`BLOCK`] at a time with each word's unit
//! exponential precomputed. Every simulator digest rests on that block
//! handing out exactly the generator's stream. The property here runs a
//! random script of the samplers' calls — exponentials at random positive
//! rates, plain uniforms, `ParetoSampler` and `BoundedPareto` — once on a
//! block and once on a plain `StdRng` of the same seed through the
//! samplers' own `sample` methods, and demands the same bits from every
//! call. Each call takes one word, and every script is longer than three
//! blocks, so it crosses at least three refills at offsets the script's
//! mix of calls decides.

use bevra::load::{BoundedPareto, ExpSampler, ParetoSampler};
use bevra::sim::draws::{Draw, DrawBlock, BLOCK};
use bevra_check::{ensure, int_range, Checker};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One sampler call, as the simulator's consumers make them.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// An exponential at this rate (interarrivals, holdings, sojourns,
    /// rate mixing, retry backoff).
    Exp(f64),
    /// A plain uniform on `[0, 1)`.
    Uniform,
    /// A Pareto variate with this exponent (Pareto holdings).
    Pareto(f64),
    /// A bounded Pareto variate, `(z, cap)` (Pareto rate mixing).
    BoundedPareto(f64, f64),
}

/// A script of `len` calls drawn from `script_seed`. The mix of call kinds
/// is itself random, so some scripts are nearly all exponentials, as a
/// fixed-rate lane's are, and others interleave every kind.
fn script(script_seed: u64, len: usize) -> Vec<Call> {
    let mut r = StdRng::seed_from_u64(script_seed);
    let weights: [f64; 4] = [r.random(), r.random(), r.random(), r.random()];
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            let mut x = r.random::<f64>() * total;
            let kind = weights
                .iter()
                .position(|&w| {
                    x -= w;
                    x < 0.0
                })
                .unwrap_or(weights.len() - 1);
            let shape = 1.05 + 4.0 * r.random::<f64>();
            match kind {
                0 => Call::Exp(10f64.powf(18.0 * r.random::<f64>() - 9.0)),
                1 => Call::Uniform,
                2 => Call::Pareto(shape),
                _ => Call::BoundedPareto(shape, 1.0 + 10f64.powf(6.0 * r.random::<f64>())),
            }
        })
        .collect()
}

/// Run `calls` on a block and on a plain generator, both seeded with
/// `seed`; fail at the first call whose bits differ.
fn same_bits(seed: u64, calls: &[Call]) -> Result<(), String> {
    let mut block = DrawBlock::seed_from_u64(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for (k, &call) in calls.iter().enumerate() {
        let (got, want) = match call {
            Call::Exp(rate) => {
                let s = ExpSampler::new(rate);
                (block.exp(s), s.sample(&mut rng))
            }
            Call::Uniform => (block.uniform(), rng.random::<f64>()),
            Call::Pareto(z) => {
                let p = ParetoSampler::new(z);
                (p.at(block.uniform()), p.sample(&mut rng))
            }
            Call::BoundedPareto(z, cap) => {
                let p = BoundedPareto::new(z, cap);
                (p.at(block.uniform()), p.sample(&mut rng))
            }
        };
        ensure(got.to_bits() == want.to_bits(), || {
            format!(
                "call {k} (block {}, word {}): {call:?} gave {got:e} from the block, \
                 {want:e} from StdRng",
                k / BLOCK,
                k % BLOCK
            )
        })?;
    }
    Ok(())
}

#[test]
fn the_draw_block_returns_the_generators_bits() {
    let strategy = (
        int_range(0, u64::MAX - 1),
        int_range(0, u64::MAX - 1),
        int_range(3 * BLOCK as u64 + 1, 5 * BLOCK as u64),
    );
    Checker::new("draw_block_matches_stdrng").run(&strategy, |&(seed, script_seed, len)| {
        same_bits(seed, &script(script_seed, len as usize))
    });
}
