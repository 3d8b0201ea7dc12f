//! L1 violation fixture: `count_widgets` is governed only by a private
//! family member, and `count_gadgets` ignores its `ParallelConfig`.

pub struct Budget;
pub struct ParallelConfig;

pub fn count_widgets(items: &[u64]) -> u64 {
    count_widgets_inner(items, &Budget)
}

fn count_widgets_inner(items: &[u64], budget: &Budget) -> u64 {
    let _ = budget;
    items.len() as u64
}

pub fn count_gadgets(items: &[u64], budget: &Budget, _parallel: &ParallelConfig) -> u64 {
    let _ = budget;
    items.len() as u64
}
