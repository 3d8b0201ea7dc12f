//! Parity harness that references every engine base.

fn parity_widgets() {
    let items = [1, 2, 3];
    let parallel = ParallelConfig { threads: 2 };
    assert_eq!(count_widgets(&items), count_widgets_observed(&items, &Budget, &parallel));
}
