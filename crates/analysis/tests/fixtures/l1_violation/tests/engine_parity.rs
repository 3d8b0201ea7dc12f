//! Parity harness that references both engines.

fn parity_widgets_and_gadgets() {
    let items = [1, 2, 3];
    assert_eq!(count_widgets(&items), count_gadgets(&items, &Budget, &ParallelConfig));
}
