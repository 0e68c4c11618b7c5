//! The sanctioned form: every draw comes from the run's seeded RNG.
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) fn jitter(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
