//! Switch state: feedback pipelines and host FIFOs.
//!
//! The crossbar routing itself is stateless (it is configuration, held in
//! the configuration layer); this module holds the *stateful* parts of a
//! switch — the feedback pipeline it owns and its host-side FIFOs.

use std::collections::VecDeque;

use systolic_ring_isa::Word16;

/// The feedback pipeline owned by one switch (paper §4.2, Figure 5).
///
/// Every cycle the switch unconditionally pushes the upstream layer's output
/// vector; reads address `(stage, lane)` with stage 0 being the most recent
/// capture. The fixed depth bounds the reverse-dataflow reach and "the
/// required delays on recursive branch are automatically achieved in them".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeedbackPipeline {
    stages: VecDeque<Vec<Word16>>,
    depth: usize,
    width: usize,
}

impl FeedbackPipeline {
    /// A pipeline of `depth` stages, each a vector of `width` words,
    /// initially all zero.
    pub fn new(depth: usize, width: usize) -> Self {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        let stages = (0..depth).map(|_| vec![Word16::ZERO; width]).collect();
        FeedbackPipeline {
            stages,
            depth,
            width,
        }
    }

    /// Pipeline depth in stages.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reads `(stage, lane)`; stage 0 is the newest capture.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= depth` or `lane >= width`; routing is validated
    /// at configuration-write time.
    #[inline]
    pub fn read(&self, stage: usize, lane: usize) -> Word16 {
        self.stages[stage][lane]
    }

    /// Pushes a captured layer-output vector, evicting the oldest stage.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != width`.
    pub fn push(&mut self, vector: Vec<Word16>) {
        assert_eq!(vector.len(), self.width, "capture width mismatch");
        self.stages.push_front(vector);
        self.stages.pop_back();
    }

    /// Captures a new stage-0 vector without allocating: the evicted
    /// oldest stage's buffer is refilled lane-by-lane from `fill` and
    /// reinserted as the newest stage. Equivalent to
    /// [`FeedbackPipeline::push`] with `vec![fill(0), .., fill(width-1)]`.
    pub fn rotate_with<F: FnMut(usize) -> Word16>(&mut self, mut fill: F) {
        let mut stage = self.stages.pop_back().expect("depth >= 1");
        for (lane, slot) in stage.iter_mut().enumerate() {
            *slot = fill(lane);
        }
        self.stages.push_front(stage);
    }

    /// Overwrites one `(stage, lane)` word in place (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `stage >= depth` or `lane >= width`.
    pub fn poke(&mut self, stage: usize, lane: usize, word: Word16) {
        self.stages[stage][lane] = word;
    }

    /// Swaps the contents of two lanes across every stage (Dnode remap:
    /// the in-flight output history follows the swapped roles).
    ///
    /// # Panics
    ///
    /// Panics if either lane is `>= width`.
    pub(crate) fn swap_lanes(&mut self, a: usize, b: usize) {
        assert!(a < self.width && b < self.width, "lane out of range");
        for stage in &mut self.stages {
            stage.swap(a, b);
        }
    }
}

/// Outcome of a bounded FIFO push.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The word was enqueued.
    Stored,
    /// The FIFO was full; the word was dropped.
    Dropped,
}

/// A bounded word FIFO (host-input or host-output side of a switch).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WordFifo {
    // Crate-visible for the fused block engine's cursor replay.
    pub(crate) queue: VecDeque<Word16>,
    pub(crate) capacity: usize,
}

impl WordFifo {
    /// An empty FIFO holding at most `capacity` words.
    pub fn new(capacity: usize) -> Self {
        WordFifo {
            queue: VecDeque::new(),
            capacity,
        }
    }

    /// Words currently enqueued.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no words are enqueued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` if at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// The word a reader would observe this cycle (head), if any.
    #[inline]
    pub fn peek(&self) -> Option<Word16> {
        self.queue.front().copied()
    }

    /// Removes and returns the head.
    pub fn pop(&mut self) -> Option<Word16> {
        self.queue.pop_front()
    }

    /// Enqueues `word`, dropping it if the FIFO is full.
    pub fn push(&mut self, word: Word16) -> PushOutcome {
        if self.is_full() {
            PushOutcome::Dropped
        } else {
            self.queue.push_back(word);
            PushOutcome::Stored
        }
    }
}

/// Stateful parts of one switch.
///
/// A switch owns `2 * width` host-input FIFOs and `width` host-output
/// FIFOs — the paper's "direct dedicated ports", enough to feed both
/// forward ports of every downstream Dnode and to capture the whole
/// upstream layer every cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchState {
    /// The feedback pipeline this switch owns.
    pub pipe: FeedbackPipeline,
    /// Host-to-ring FIFOs (filled by host streams or controller `hpush`),
    /// indexed by host-input port.
    pub host_in: Vec<WordFifo>,
    /// Ring-to-host FIFOs (filled by the per-port capture selectors,
    /// drained by host sinks or controller `hpop`), indexed by out-port.
    pub host_out: Vec<WordFifo>,
}

impl SwitchState {
    /// A reset switch with the given pipeline depth, layer width and host
    /// FIFO capacity.
    pub fn new(pipe_depth: usize, width: usize, fifo_capacity: usize) -> Self {
        SwitchState {
            pipe: FeedbackPipeline::new(pipe_depth, width),
            host_in: (0..2 * width)
                .map(|_| WordFifo::new(fifo_capacity))
                .collect(),
            host_out: (0..width).map(|_| WordFifo::new(fifo_capacity)).collect(),
        }
    }

    /// Number of host-input ports on this switch.
    pub fn host_in_ports(&self) -> usize {
        self.host_in.len()
    }

    /// Number of host-output ports on this switch.
    pub fn host_out_ports(&self) -> usize {
        self.host_out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: i16) -> Word16 {
        Word16::from_i16(v)
    }

    #[test]
    fn pipeline_shifts_and_reads_by_age() {
        let mut p = FeedbackPipeline::new(3, 2);
        assert_eq!(p.read(2, 1), Word16::ZERO);
        p.push(vec![w(1), w(2)]);
        p.push(vec![w(3), w(4)]);
        assert_eq!(p.read(0, 0), w(3));
        assert_eq!(p.read(0, 1), w(4));
        assert_eq!(p.read(1, 0), w(1));
        assert_eq!(p.read(2, 0), Word16::ZERO);
        p.push(vec![w(5), w(6)]);
        p.push(vec![w(7), w(8)]);
        // The (1,2) capture has been evicted.
        assert_eq!(p.read(2, 0), w(3));
        assert_eq!(p.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn pipeline_rejects_wrong_width() {
        FeedbackPipeline::new(2, 2).push(vec![w(1)]);
    }

    #[test]
    fn fifo_ordering_and_capacity() {
        let mut f = WordFifo::new(2);
        assert!(f.is_empty());
        assert_eq!(f.push(w(1)), PushOutcome::Stored);
        assert_eq!(f.push(w(2)), PushOutcome::Stored);
        assert!(f.is_full());
        assert_eq!(f.push(w(3)), PushOutcome::Dropped);
        assert_eq!(f.peek(), Some(w(1)));
        assert_eq!(f.pop(), Some(w(1)));
        assert_eq!(f.pop(), Some(w(2)));
        assert_eq!(f.pop(), None);
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn switch_state_construction() {
        let s = SwitchState::new(4, 3, 16);
        assert_eq!(s.pipe.depth(), 4);
        assert_eq!(s.host_in_ports(), 6);
        assert_eq!(s.host_out_ports(), 3);
        assert!(s.host_in.iter().all(WordFifo::is_empty));
        assert!(s.host_out.iter().all(WordFifo::is_empty));
    }
}
