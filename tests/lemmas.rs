//! Structural-lemma validation across configuration corpora: Lemmas 3.6,
//! 3.8(2) and 3.9 checked on real executions of the canonical DRIP.

use anon_radio::verify::verify_canonical_execution;
use radio_graph::{families, generators, tags, Configuration};
use radio_util::rng::rng_from;

#[test]
fn lemmas_hold_on_paper_families() {
    for m in 1..=6u64 {
        verify_canonical_execution(&families::h_m(m)).unwrap();
        verify_canonical_execution(&families::s_m(m)).unwrap();
    }
    for m in 2..=5usize {
        verify_canonical_execution(&families::g_m(m)).unwrap();
    }
}

#[test]
fn lemmas_hold_on_deterministic_shapes() {
    let shapes: Vec<(&str, radio_graph::Graph)> = vec![
        ("path", generators::path(7)),
        ("cycle", generators::cycle(7)),
        ("star", generators::star(7)),
        ("complete", generators::complete(5)),
        ("grid", generators::grid(3, 3)),
        ("hypercube", generators::hypercube(3)),
        ("bipartite", generators::complete_bipartite(3, 4)),
        ("caterpillar", generators::caterpillar(3, 2)),
        ("spider", generators::spider(3, 2)),
        ("barbell", generators::barbell(3, 1)),
        ("lollipop", generators::lollipop(4, 3)),
        ("balanced tree", generators::balanced_tree(9, 3)),
        ("wheel", generators::wheel(7)),
        ("ladder", generators::ladder(4)),
        ("torus", generators::torus(3, 3)),
        ("double star", generators::double_star(3, 2)),
    ];
    let mut rng = rng_from(31);
    for (name, graph) in shapes {
        // several tag regimes per shape
        let n = graph.node_count();
        let configs = vec![
            Configuration::with_uniform_tags(graph.clone(), 1).unwrap(),
            tags::random_in_span(graph.clone(), 2, &mut rng),
            tags::distinct_shuffled(graph.clone(), &mut rng),
            tags::bfs_wave(graph.clone(), 2),
        ];
        for (i, config) in configs.into_iter().enumerate() {
            verify_canonical_execution(&config)
                .unwrap_or_else(|e| panic!("{name} (n={n}, regime {i}): {e}"));
        }
    }
}

#[test]
fn lemmas_hold_on_random_corpus() {
    let mut rng = rng_from(1234);
    for trial in 0..40 {
        let n = 2 + trial % 12;
        let g = generators::gnp_connected(n, 0.25, &mut rng);
        let config = tags::random_in_span(g, 4, &mut rng);
        verify_canonical_execution(&config)
            .unwrap_or_else(|e| panic!("trial {trial} ({config}): {e}"));
    }
}

#[test]
fn proposition_2_1_local_global_conversion() {
    // For a patient DRIP, local round i at v occurs in the same global
    // round as local round i − (t_w − t_v) at w. Equivalent check: every
    // node wakes exactly at its tag, so global = tag + local.
    let config = families::g_m(3);
    let (_, schedule) = anon_radio::CanonicalSchedule::build(&config);
    let factory = anon_radio::CanonicalFactory::new(std::sync::Arc::new(schedule));
    let ex = radio_sim::ModelKind::default()
        .run(&config, &factory, radio_sim::RunOpts::default())
        .unwrap();
    for v in 0..config.size() as u32 {
        assert_eq!(ex.wake_round[v as usize], config.tag(v));
        for w in 0..config.size() as u32 {
            // local i at v is global tag(v)+i = local i + tag(v) − tag(w) at w.
            let i = 5u64;
            let global = config.tag(v) + i;
            let local_at_w = global as i128 - config.tag(w) as i128;
            assert_eq!(
                local_at_w,
                i as i128 - (config.tag(w) as i128 - config.tag(v) as i128)
            );
        }
    }
}
