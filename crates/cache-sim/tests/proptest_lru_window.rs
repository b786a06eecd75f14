//! Property-based tests pinning `LruWindow` to the `LruStack` it replaces on
//! the profiling and pre-classification walks.

use cache_sim::{LruStack, LruWindow};
use proptest::prelude::*;

/// A random block trace with a footprint that may be smaller or larger than
/// the scan limit, so cold, within and beyond outcomes all occur.
fn trace_strategy() -> impl Strategy<Value = Vec<u64>> {
    (1u64..=300, 1usize..1200)
        .prop_flat_map(|(footprint, len)| proptest::collection::vec(0..footprint, len))
}

proptest! {
    #[test]
    fn window_scan_and_blocks_above_match_the_stack(
        trace in trace_strategy(),
        capacity in 0usize..=200,
    ) {
        let mut window = LruWindow::new(capacity);
        let mut stack = LruStack::new();
        for &block in &trace {
            let mut visited = Vec::new();
            let expect = stack.access_scan(block, capacity, |y| visited.push(y));
            let (scan, above) = window.access(block);
            prop_assert_eq!(scan, expect);
            prop_assert_eq!(above, &visited[..]);
            prop_assert!(window.window().len() <= capacity + 1);
        }
        // The window is the top of the stack.
        let top: Vec<u64> = stack.iter().take(capacity + 1).collect();
        prop_assert_eq!(window.window(), &top[..]);
        prop_assert_eq!(window.distinct_blocks(), stack.len());
    }
}
