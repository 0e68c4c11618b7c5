//! Recycled frame buffers.
//!
//! Kernel-bypass stacks build every frame in a pre-allocated buffer that is
//! reused once the frame is consumed. A [`FramePool`] is that for one owner —
//! a replica group, or the 2PC lanes of a run: the shield takes a spare for
//! each frame it builds ([`crate::AuthLayer::shield_in`] and the other `*_in`
//! entry points) and the owner gives the buffer back once the frame is
//! delivered, dropped or refused. A group's pool also lends the buffer each
//! read reply's value is copied into, at the value's length; the value
//! travels to its client and comes back once the client has seen it (a
//! duplicate reply's at once). A replica store keeps a pool of its own for
//! the entries it copies.
//!
//! Spares of up to 4 KiB are kept in size classes, four per doubling of
//! capacity, and a frame only ever looks at the most recently returned
//! spare of its own class: taking one never scans, and a spare is never used
//! for a frame it would have to grow for or one that would leave most of it
//! unused. A buffer is allocated at its class's capacity, so every later
//! frame of the class fits it. Frames of more than 4 KiB, batches mostly,
//! share one list of spares instead: such a frame takes the most recently
//! returned one, grown once if it is shorter. One list holds at most the
//! large frames that were in flight at once, where a class per size would
//! strand spares in classes no later batch asks for.

/// Capacity of the smallest class.
const MIN_CAPACITY: usize = 32;

/// Largest frame a size class serves. A bigger frame is mostly a batch,
/// whose length varies with the ops it carries: such frames share one list
/// of spares instead of a class per size, so none is kept for a size no
/// later batch has.
const MAX_POOLED: usize = 4096;

/// Classes per doubling of capacity.
const STEPS: usize = 4;

/// Free frame buffers, by size class, and the large ones in one list (the
/// `pool` module's docs say how).
#[derive(Debug, Default)]
pub struct FramePool {
    /// By class, the most recently returned spare last.
    classes: Vec<Vec<Vec<u8>>>,
    /// Spares of more than [`MAX_POOLED`] bytes, the most recently returned
    /// last.
    large: Vec<Vec<u8>>,
    /// Buffers lent and not yet given back: the pool takes back no more than
    /// it lent, so an owner whose frames come from elsewhere never fills it.
    lent: usize,
    /// Buffers lent, spares and new ones alike.
    takes: u64,
    /// Buffers the pool had to allocate.
    allocated: u64,
}

/// The class whose capacity is the smallest one of at least `len` bytes.
fn class_of(len: usize) -> usize {
    if len <= MIN_CAPACITY {
        return 0;
    }
    let m = len - 1;
    let octave = m.ilog2() as usize - MIN_CAPACITY.ilog2() as usize;
    let step = (m >> (octave + (MIN_CAPACITY / STEPS).ilog2() as usize)) - STEPS;
    1 + octave * STEPS + step
}

/// The capacity every buffer of `class` has at least.
fn capacity_of(class: usize) -> usize {
    if class == 0 {
        return MIN_CAPACITY;
    }
    let (octave, step) = ((class - 1) / STEPS, (class - 1) % STEPS);
    ((MIN_CAPACITY / STEPS) << octave) * (STEPS + 1 + step)
}

impl FramePool {
    /// An empty buffer with room for a frame of `len` bytes: the last spare
    /// given back to `len`'s class, or a new buffer of the class's capacity.
    /// A frame larger than any class takes the last large spare given back,
    /// grown to `len` bytes if it is shorter, or a new buffer of `len` bytes.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        self.lent += 1;
        self.takes += 1;
        if len > MAX_POOLED {
            let mut spare = self.large.pop().unwrap_or_default();
            if spare.capacity() < len {
                self.allocated += 1;
                spare.reserve_exact(len);
            }
            return spare;
        }
        let class = class_of(len);
        match self.classes.get_mut(class).and_then(Vec::pop) {
            Some(spare) => spare,
            None => {
                self.allocated += 1;
                Vec::with_capacity(capacity_of(class))
            }
        }
    }

    /// Takes `buf` back as a spare, emptied so its old bytes are never
    /// read again, in the largest class it holds every frame of, or among
    /// the large spares if it is larger than any class. Once as many
    /// buffers came back as were lent, and for a buffer smaller than any
    /// class, it is dropped instead.
    pub fn give(&mut self, mut buf: Vec<u8>) {
        if self.lent == 0 {
            return;
        }
        self.lent -= 1;
        buf.clear();
        if buf.capacity() > MAX_POOLED {
            self.large.push(buf);
            return;
        }
        let Some(class) = class_of(buf.capacity() + 1).checked_sub(1) else {
            return;
        };
        if self.classes.len() <= class {
            self.classes.resize_with(class + 1, Vec::new);
        }
        self.classes[class].push(buf);
    }

    /// Drops every spare and forgets what was lent, as a new pool would
    /// have neither; the counts of [`Self::takes`] and [`Self::allocated`]
    /// stay, so they cover the owner's whole life.
    pub fn drop_spares(&mut self) {
        self.classes = Vec::new();
        self.large = Vec::new();
        self.lent = 0;
    }

    /// Spares held.
    pub fn spares(&self) -> usize {
        self.classes.iter().map(Vec::len).sum::<usize>() + self.large.len()
    }

    /// Buffers lent, spares and new ones alike.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// Buffers allocated because no spare fitted.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_every_length_with_at_most_a_quarter_to_spare() {
        let mut last = 0;
        for len in 1..70_000 {
            let class = class_of(len);
            let capacity = capacity_of(class);
            assert!(capacity >= len, "{len} in a class of {capacity}");
            assert!(class == 0 || capacity_of(class - 1) < len, "{len}");
            assert!(class == 0 || capacity * 4 <= len * 5, "{len}");
            assert!(class >= last && class <= last + 1);
            last = class;
        }
        assert_eq!(
            (1..=9).map(capacity_of).collect::<Vec<_>>(),
            [40, 48, 56, 64, 80, 96, 112, 128, 160]
        );
    }

    #[test]
    fn a_spare_serves_its_class_and_no_other() {
        let mut pool = FramePool::default();
        let first = pool.take(100);
        assert_eq!(first.capacity(), 112);
        pool.give(first);
        // 97..=112 share the spare; 113 is the next class up.
        assert_eq!(pool.take(113).capacity(), 128);
        let spare = pool.take(97);
        assert_eq!((spare.capacity(), pool.allocated()), (112, 2));
    }

    #[test]
    fn a_large_spare_serves_the_next_large_frame() {
        let mut pool = FramePool::default();
        let page = pool.take(MAX_POOLED);
        assert_eq!(page.capacity(), MAX_POOLED);
        let mut big = pool.take(10_000);
        assert_eq!(big.capacity(), 10_000);
        big.extend_from_slice(&[0xAA; 10_000]);
        let at = big.as_ptr();
        pool.give(big);
        pool.give(page);
        assert_eq!((pool.spares(), pool.allocated()), (2, 2));
        // A shorter batch takes the same buffer, emptied, and allocates nothing.
        let spare = pool.take(MAX_POOLED + 1);
        assert!(spare.is_empty() && spare.as_ptr() == at && spare.capacity() == 10_000);
        assert_eq!((pool.spares(), pool.takes(), pool.allocated()), (1, 3, 2));
    }

    #[test]
    fn a_shorter_large_spare_grows_once() {
        let mut pool = FramePool::default();
        let big = pool.take(5_000);
        pool.give(big);
        let grown = pool.take(12_000);
        assert!(grown.capacity() >= 12_000);
        assert_eq!(pool.allocated(), 2);
        pool.give(grown);
        // Grown once, it holds the longer frame from then on.
        drop(pool.take(12_000));
        assert_eq!((pool.takes(), pool.allocated()), (3, 2));
    }

    #[test]
    fn a_given_buffer_is_emptied_and_filed_by_the_frames_it_holds() {
        let mut pool = FramePool::default();
        drop(pool.take(8));
        let mut dirty = Vec::with_capacity(100);
        dirty.extend_from_slice(&[0xAA; 100]);
        pool.give(dirty);
        // 100 bytes hold every frame of the 96-byte class, not the 112 one.
        let spare = pool.take(90);
        assert!(spare.is_empty() && spare.capacity() == 100);
        assert_eq!(pool.allocated(), 1);
    }

    #[test]
    fn dropping_the_spares_keeps_the_counts() {
        let mut pool = FramePool::default();
        let (small, large) = (pool.take(64), pool.take(10_000));
        pool.give(small);
        pool.give(large);
        assert_eq!((pool.spares(), pool.takes(), pool.allocated()), (2, 2, 2));
        pool.drop_spares();
        // Nothing is owed any more: a buffer given now is dropped.
        pool.give(vec![0; 64]);
        assert_eq!((pool.spares(), pool.takes(), pool.allocated()), (0, 2, 2));
        drop((pool.take(64), pool.take(10_000)));
        assert_eq!((pool.takes(), pool.allocated()), (4, 4));
    }

    #[test]
    fn the_pool_takes_back_no_more_than_it_lent() {
        let mut pool = FramePool::default();
        pool.give(vec![0; 64]);
        assert_eq!(pool.spares(), 0);
        let lent = pool.take(64);
        pool.give(vec![0; 64]);
        pool.give(lent);
        assert_eq!(pool.spares(), 1);
        // Too small for any class: dropped, but counted as back.
        let _ = pool.take(8);
        pool.give(Vec::with_capacity(4));
        pool.give(vec![0; 64]);
        assert_eq!(pool.spares(), 1);
        // The large spares keep to the same rule.
        let large = pool.take(10_000);
        pool.give(large);
        pool.give(vec![0; 10_000]);
        assert_eq!(pool.spares(), 2);
    }
}
