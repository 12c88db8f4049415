//! Connected components and connectivity checks, by breadth-first search.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Assigns a component id to every vertex; returns `(component_of, count)`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.n_vertices();
    let mut component = vec![usize::MAX; n];
    let mut count = 0;
    // one shared queue across components: the component array doubles as the
    // visited set, so the whole decomposition allocates exactly twice
    let mut queue = VecDeque::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        component[start] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                let v = v as usize;
                if component[v] == usize::MAX {
                    component[v] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (component, count)
}

/// Whether the graph is connected. Empty graphs and single vertices count as
/// connected.
pub fn is_connected(graph: &Graph) -> bool {
    if graph.n_vertices() <= 1 {
        return true;
    }
    connected_components(graph).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_is_connected() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(is_connected(&g));
        let (_, count) = connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        assert!(!is_connected(&g));
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3); // {0,1}, {2,3}, {4}
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn degenerate_graphs_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
    }
}
