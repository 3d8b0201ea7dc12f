//! L1 clean fixture: `count_widgets` is governed through the public
//! family member `count_widgets_observed`, which reads its
//! `ParallelConfig`.

pub struct Budget;
pub struct ParallelConfig {
    pub threads: usize,
}

pub fn count_widgets(items: &[u64]) -> u64 {
    count_widgets_observed(items, &Budget, &ParallelConfig { threads: 1 })
}

pub fn count_widgets_observed(items: &[u64], budget: &Budget, parallel: &ParallelConfig) -> u64 {
    let _ = (budget, parallel.threads);
    items.len() as u64
}
