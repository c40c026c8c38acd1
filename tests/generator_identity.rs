//! Every seeded graph the generators produce, pinned bit for bit.
//!
//! Each row is an FNV-1a-64 hash of the vertex list and of the edge list
//! (`src`, `dst`, `weight.to_bits()`, little-endian), taken at pool widths
//! 1 and 2. The rows cover every registry dataset's proxy at divisors 256,
//! 1024 and 8192 (skipping targets above 200 k vertices, which no
//! daemon job materializes) for seeds 1 and 7, plus the graphs the
//! benchmark generates directly for its set-ups. A speed-up of a
//! generator or of the builder must leave all of them unchanged; a PR
//! that means to change a graph re-pins its rows and says so.
//!
//! On a mismatch the test prints every computed row in source form.

use graphalytics::core::datasets::{all_datasets, ProxyRecipe};
use graphalytics::graph500::RmatConfig;
use graphalytics::harness::proxy::materialize_with;
use graphalytics::prelude::*;

const DIVISORS: [u64; 3] = [256, 1024, 8192];
const SEEDS: [u64; 2] = [1, 7];
const MAX_TARGET_VERTICES: u64 = 200_000;

/// `(graph, |V|, |E|, vertex hash, edge hash)`.
type Row = (String, usize, usize, u64, u64);

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn row(name: String, g: &Graph) -> Row {
    const BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    let (mut vh, mut eh) = (BASIS, BASIS);
    for v in g.vertices() {
        fnv1a(&mut vh, &v.to_le_bytes());
    }
    for e in g.edges() {
        fnv1a(&mut eh, &e.src.to_le_bytes());
        fnv1a(&mut eh, &e.dst.to_le_bytes());
        fnv1a(&mut eh, &e.weight.to_bits().to_le_bytes());
    }
    (name, g.vertex_count(), g.edge_count(), vh, eh)
}

/// Generates one graph at pool widths 1 and 2 and checks both agree.
fn pinned_row(name: String, generate: impl Fn(&WorkerPool) -> Graph) -> Row {
    let sequential = row(name.clone(), &generate(&WorkerPool::inline()));
    let pooled = row(name, &generate(&WorkerPool::new(2)));
    assert_eq!(sequential, pooled, "pool width changed the graph");
    sequential
}

fn check(computed: Vec<Row>, pinned: &[(&str, usize, usize, u64, u64)]) {
    let pinned: Vec<Row> = pinned
        .iter()
        .map(|&(n, v, e, vh, eh)| (n.to_string(), v, e, vh, eh))
        .collect();
    if computed != pinned {
        for (n, v, e, vh, eh) in &computed {
            println!("    ({n:?}, {v}, {e}, {vh:#018x}, {eh:#018x}),");
        }
        let differ: Vec<&str> = computed
            .iter()
            .filter(|r| !pinned.contains(r))
            .map(|r| r.0.as_str())
            .collect();
        panic!(
            "{} computed vs {} pinned rows; differing: {differ:?}",
            computed.len(),
            pinned.len()
        );
    }
}

/// The registry proxies of one recipe family, in registry order.
fn proxy_rows(family: fn(&ProxyRecipe) -> bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in all_datasets().into_iter().filter(|s| family(&s.recipe)) {
        for divisor in DIVISORS {
            if spec.vertices / divisor > MAX_TARGET_VERTICES {
                continue;
            }
            for seed in SEEDS {
                let name = format!("{}/{divisor}/{seed}", spec.id);
                rows.push(pinned_row(name, |pool| {
                    materialize_with(spec, divisor, seed, pool)
                }));
            }
        }
    }
    rows
}

#[test]
fn rmat_proxies_are_pinned() {
    check(proxy_rows(|r| matches!(r, ProxyRecipe::Rmat { .. })), RMAT);
}

#[test]
fn graph500_proxies_are_pinned() {
    check(
        proxy_rows(|r| matches!(r, ProxyRecipe::Graph500 { .. })),
        GRAPH500,
    );
}

#[test]
fn datagen_proxies_are_pinned() {
    check(
        proxy_rows(|r| matches!(r, ProxyRecipe::Datagen { .. })),
        DATAGEN,
    );
}

/// The graphs the benchmark's library workloads generate for their
/// set-ups: weighted Graph500 at scales 14 and 15, directed R-MAT at 15.
#[test]
fn benchmark_setup_graphs_are_pinned() {
    let mut rows = Vec::new();
    for scale in [14, 15] {
        rows.push(pinned_row(format!("graph500-{scale}w"), |pool| {
            Graph500Config::new(scale)
                .with_edge_factor(16)
                .with_seed(1)
                .with_weights(true)
                .generate_with(pool)
        }));
    }
    rows.push(pinned_row("rmat-15d".into(), |pool| {
        RmatConfig {
            scale: 15,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 1,
            directed: true,
            weighted: false,
            keep_isolated: false,
        }
        .generate_with(pool)
    }));
    check(rows, SETUP);
}

#[rustfmt::skip]
const RMAT: &[(&str, usize, usize, u64, u64)] = &[
    ("R1/256/1", 3850, 15035, 0x7d6e1722b7356de1, 0x5aaed0f17b198d4f),
    ("R1/256/7", 3864, 15038, 0xfa3a3e8eb1a076dd, 0x3ad3b0ec29ba96ac),
    ("R1/1024/1", 1137, 3682, 0xd0ad75264fa8916d, 0x76f1c918328c4e47),
    ("R1/1024/7", 1110, 3671, 0xe3806ce7fc969483, 0x8c2c27b7afd5a816),
    ("R1/8192/1", 174, 437, 0x15d329759c0a198f, 0xeeb5b2a35f63d216),
    ("R1/8192/7", 188, 447, 0xa9660467f9a685e1, 0x2d536c13b3e3d311),
    ("R2/256/1", 4025, 66251, 0x2e161902066a6953, 0xc712f2a7acc81ccd),
    ("R2/256/7", 4013, 66173, 0x8903b0f49aa1549d, 0x57f9d4a7ff10f526),
    ("R2/1024/1", 1014, 15400, 0xbcaf51f7a1f7f4d6, 0x7aebd31dd4ef431c),
    ("R2/1024/7", 1013, 15388, 0xb5d9c504ec751cd2, 0x5c33679f9c5c4b4d),
    ("R2/8192/1", 128, 1486, 0xdaae756b97d6bf25, 0x784ba46a0493ac9a),
    ("R2/8192/7", 128, 1471, 0xdaae756b97d6bf25, 0xa9e1e51fba5bed28),
    ("R3/256/1", 14505, 65430, 0xd8c8da32e06e31d1, 0xd8ed92f961c7a7a7),
    ("R3/256/7", 14515, 65444, 0x17e00fe104d09322, 0xb3052eaaeece6dff),
    ("R3/1024/1", 3711, 16319, 0x9015175203d64b75, 0xb166a44ac955575c),
    ("R3/1024/7", 3670, 16319, 0x13dedabf0a0466b0, 0xaf85ae059d085225),
    ("R3/8192/1", 485, 2007, 0xfe0c81b52f86bc07, 0xc2ef48548f5ce1b8),
    ("R3/8192/7", 482, 2000, 0x030461067b598d14, 0xac15b1002db182fd),
    ("R4/256/1", 4096, 194937, 0x34815615f489cb25, 0xefbbda80a89060d9),
    ("R4/256/7", 4096, 194923, 0x34815615f489cb25, 0x5ee285e9469cc62c),
    ("R4/1024/1", 1024, 45491, 0x21b84c137ccdb625, 0x3a330b1600e235b2),
    ("R4/1024/7", 1024, 45527, 0x21b84c137ccdb625, 0x022983c408f89537),
    ("R4/8192/1", 128, 3791, 0xdaae756b97d6bf25, 0x2ecbe7043387e2d9),
    ("R4/8192/7", 128, 3733, 0xdaae756b97d6bf25, 0xc1e159a0197efebf),
    ("R6/1024/1", 58346, 1798692, 0xa3550bbada6ff3bd, 0x82b5225a57ef3dad),
    ("R6/1024/7", 58433, 1799103, 0x565b493e52f22401, 0xb9f512aaea860262),
    ("R6/8192/1", 7657, 209636, 0x84e700535e358c79, 0xdfc7bd03d57fa437),
    ("R6/8192/7", 7633, 209540, 0x265fbc8d139cb858, 0x02736d9a11e05351),
];

#[rustfmt::skip]
const GRAPH500: &[(&str, usize, usize, u64, u64)] = &[
    ("G22/256/1", 12501, 213030, 0xaf433f03a9edbc6a, 0x454695336d2366c5),
    ("G22/256/7", 12527, 213053, 0xea93abf49b0369e2, 0x7aafbb02fc748be3),
    ("G22/1024/1", 3332, 48240, 0x43a3a553e54c3ec9, 0xafcd5aed9cdc3622),
    ("G22/1024/7", 3333, 48406, 0x0f8cec675dd10c8b, 0x7cd1269a4026fc4f),
    ("G22/8192/1", 449, 4777, 0xbdeb3646730f57d4, 0x815172e4fe89379b),
    ("G22/8192/7", 453, 4764, 0xb4a90cb11e66a666, 0xba1fdd34dbe8f657),
    ("G23/256/1", 24192, 441831, 0x9104cb5509f63cff, 0x70dd3e384763c74e),
    ("G23/256/7", 24224, 441658, 0x1b86ccc43203e36a, 0xc98c230d3c14905c),
    ("G23/1024/1", 6435, 101943, 0x5986c1f78a14f559, 0x2fdc7763678e52cb),
    ("G23/1024/7", 6443, 101955, 0xa507bc109b428fc7, 0x9b0a2856fad3a6d1),
    ("G23/8192/1", 874, 10492, 0x983dafbd06c4254e, 0x1309a2cb580f3da1),
    ("G23/8192/7", 891, 10460, 0xbd60815c543dea1a, 0x2d6bd7fcd782a61d),
    ("G24/256/1", 46755, 910141, 0xb848b06c8819935d, 0x0fc8de656f0ef7b7),
    ("G24/256/7", 46814, 909810, 0x55c3471bd6bdc8c8, 0x0337af6454f816c3),
    ("G24/1024/1", 12501, 213030, 0xaf433f03a9edbc6a, 0x454695336d2366c5),
    ("G24/1024/7", 12527, 213053, 0xea93abf49b0369e2, 0x7aafbb02fc748be3),
    ("G24/8192/1", 1724, 22589, 0x8f6d5f20a813361d, 0x0e8cd9bb937e2566),
    ("G24/8192/7", 1724, 22622, 0x8d81aa22df7ef3ae, 0x77da9dcca4af019d),
    ("G25/256/1", 90224, 1865623, 0xdc34a13a81cde62f, 0xd3e9435e4b9b2d46),
    ("G25/256/7", 90158, 1864988, 0x524f3d6912a2a24a, 0x4b5f660360af2850),
    ("G25/1024/1", 24192, 441831, 0x9104cb5509f63cff, 0x70dd3e384763c74e),
    ("G25/1024/7", 24224, 441658, 0x1b86ccc43203e36a, 0xc98c230d3c14905c),
    ("G25/8192/1", 3332, 48240, 0x43a3a553e54c3ec9, 0xafcd5aed9cdc3622),
    ("G25/8192/7", 3333, 48406, 0x0f8cec675dd10c8b, 0x7cd1269a4026fc4f),
    ("G26/256/1", 174041, 3806778, 0x406a45f66c9084ed, 0x564730223073d083),
    ("G26/256/7", 173961, 3806687, 0x98cddf7c2cee2508, 0x2a72d700d691bf24),
    ("G26/1024/1", 46755, 910141, 0xb848b06c8819935d, 0x0fc8de656f0ef7b7),
    ("G26/1024/7", 46814, 909810, 0x55c3471bd6bdc8c8, 0x0337af6454f816c3),
    ("G26/8192/1", 6435, 101943, 0x5986c1f78a14f559, 0x2fdc7763678e52cb),
    ("G26/8192/7", 6443, 101955, 0xa507bc109b428fc7, 0x9b0a2856fad3a6d1),
];

#[rustfmt::skip]
const DATAGEN: &[(&str, usize, usize, u64, u64)] = &[
    ("R5/1024/1", 64062, 1124571, 0xc990fe131390e6f8, 0x8858f8f1dc35ca88),
    ("R5/1024/7", 64062, 1125020, 0xc990fe131390e6f8, 0xb1861f694bbc08ea),
    ("R5/8192/1", 8007, 98627, 0xb1a2b3740129a697, 0x1de450a0a85b6d8e),
    ("R5/8192/7", 8007, 100192, 0xb1a2b3740129a697, 0x3eb9e8213ecfec09),
    ("D100/256/1", 6523, 77107, 0x48e67b9c1fecc9a5, 0xd7446dd4520706c5),
    ("D100/256/7", 6523, 78308, 0x48e67b9c1fecc9a5, 0x0c33ba93d8cf43ee),
    ("D100/1024/1", 1630, 14528, 0xdfbddc87fbb25458, 0x02404ca2e60c635f),
    ("D100/1024/7", 1630, 15050, 0xdfbddc87fbb25458, 0x050f2a2e62cfc14a),
    ("D100/8192/1", 203, 1108, 0x176f5507e7d0fcce, 0x176a7112fff51cf2),
    ("D100/8192/7", 203, 1148, 0x176f5507e7d0fcce, 0xa19c108d016e2d8f),
    ("D100'/256/1", 6523, 112452, 0x48e67b9c1fecc9a5, 0x395937ffdb2dd44c),
    ("D100'/256/7", 6523, 101242, 0x48e67b9c1fecc9a5, 0x06018767c0143916),
    ("D100'/1024/1", 1630, 21673, 0xdfbddc87fbb25458, 0x94a9edc60d67cf77),
    ("D100'/1024/7", 1630, 30052, 0xdfbddc87fbb25458, 0x0f0537bbfcd9345e),
    ("D100'/8192/1", 203, 1852, 0x176f5507e7d0fcce, 0x1ddbe84b30125958),
    ("D100'/8192/7", 203, 1797, 0x176f5507e7d0fcce, 0xd6a5e8fe56a07de4),
    ("D100\"/256/1", 6523, 171700, 0x48e67b9c1fecc9a5, 0x7a0b8032d373b939),
    ("D100\"/256/7", 6523, 168186, 0x48e67b9c1fecc9a5, 0xcdd2700e8d9247bb),
    ("D100\"/1024/1", 1630, 28580, 0xdfbddc87fbb25458, 0x66a4ebefe59e6382),
    ("D100\"/1024/7", 1630, 37448, 0xdfbddc87fbb25458, 0x69a497f1095ad620),
    ("D100\"/8192/1", 203, 2089, 0x176f5507e7d0fcce, 0x2c3c970f0a644f9f),
    ("D100\"/8192/7", 203, 3848, 0x176f5507e7d0fcce, 0x9f32a7f992a46462),
    ("D300/256/1", 16992, 242492, 0xd201323a5405eba5, 0xa403d541dab50784),
    ("D300/256/7", 16992, 241755, 0xd201323a5405eba5, 0xad24579ccd236b7c),
    ("D300/1024/1", 4248, 45909, 0xbdf5b446fc1075a5, 0x61e601ce518f942a),
    ("D300/1024/7", 4248, 47295, 0xbdf5b446fc1075a5, 0xc671913a6878a278),
    ("D300/8192/1", 531, 3543, 0xe19c00a55e0f9f14, 0x53f62c77b7b23f24),
    ("D300/8192/7", 531, 3789, 0xe19c00a55e0f9f14, 0x508d8d6b1c88f460),
    ("D1000/256/1", 50000, 847094, 0x9c692fa75876c785, 0xe1d3ee3b8eca6a4a),
    ("D1000/256/7", 50000, 847640, 0x9c692fa75876c785, 0xd21767f635b1b4c7),
    ("D1000/1024/1", 12500, 167895, 0xe9e7c8a76d86a8a5, 0x4e3445979a78d339),
    ("D1000/1024/7", 12500, 168750, 0xe9e7c8a76d86a8a5, 0xcd910d8f44eee458),
    ("D1000/8192/1", 1562, 13732, 0x0f8c108fe7d92628, 0x51a159128fffd1e6),
    ("D1000/8192/7", 1562, 14424, 0x0f8c108fe7d92628, 0x59c2da052cc53b0a),
];

#[rustfmt::skip]
const SETUP: &[(&str, usize, usize, u64, u64)] = &[
    ("graph500-14w", 12619, 213230, 0xf5173807ae40a895, 0x43fc11a7cfb87009),
    ("graph500-15w", 24277, 441486, 0xca37adef08e73aa0, 0x00106c0b45e03f31),
    ("rmat-15d", 24192, 468368, 0x9104cb5509f63cff, 0xb371493a5f9db77f),
];
