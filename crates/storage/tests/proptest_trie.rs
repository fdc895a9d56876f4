//! The bulk trie build (`FullTextTrie::bulk`, the load path) against the
//! checked `FullTextTrie::insert` (the edit path): over random
//! `(label, id)` sequences both must save the same blob bytes and answer
//! every keyword alike.

use gvdb_storage::trie::{blob, FullTextTrie, MAX_WORD};
use gvdb_storage::{BufferPool, Pager};
use proptest::prelude::*;

/// Words that share suffixes ("patent", "latent"), exceed the suffix cap,
/// or are not ASCII (including ones whose lowercase form changes length).
const VOCAB: [&str; 12] = [
    "patent",
    "latent",
    "entity",
    "aaa",
    "a",
    "Zürich",
    "ZÜRICH",
    "İstanbul",
    "日本語",
    "Per-Åke",
    "2016",
    "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
];

/// Cases every sequence carries: a word repeated within one label, a
/// repeated pair, one id under two labels, a word longer than
/// [`MAX_WORD`], and non-ASCII text.
fn corner_cases() -> Vec<(String, u64)> {
    let long = "y".repeat(MAX_WORD + 9);
    vec![
        ("aaa aaa patent".into(), 1),
        // Another id in between, so a second copy would not be a tail.
        ("entity 7".into(), 2),
        ("entity 8".into(), 8),
        ("entity 7".into(), 2),
        ("latent".into(), 3),
        ("patent".into(), 6),
        ("patent office".into(), 3),
        (format!("{long} {long}x"), 4),
        ("Ünïcödé 北京 ﬁne".into(), 5),
    ]
}

fn words(label: &str) -> Vec<String> {
    label
        .to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

fn saved_bytes(pool: &BufferPool, trie: &FullTextTrie) -> Vec<u8> {
    blob::read(pool, trie.save(pool).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_build_equals_checked_inserts(
        random in prop::collection::vec(
            (
                prop::collection::vec(
                    (prop::sample::select(VOCAB.to_vec()), "[a-cé]{1,5}", 0u8..3),
                    1..4,
                ),
                0u64..12,
            ),
            0..40,
        ),
        at in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        // A label mixes vocabulary words, random short words (shared
        // substrings) and separators.
        let mut pairs: Vec<(String, u64)> = random
            .iter()
            .map(|(parts, id)| {
                let label: String = parts
                    .iter()
                    .map(|(vocab, random, sep)| {
                        let sep = [" ", "-", ", "][*sep as usize];
                        format!("{vocab}{sep}{random}{sep}")
                    })
                    .collect();
                (label, *id)
            })
            .collect();
        let at = at.min(pairs.len());
        pairs.splice(at..at, corner_cases());

        let mut checked = FullTextTrie::new();
        for (label, id) in &pairs {
            checked.insert(label, *id);
        }
        let bulk = FullTextTrie::bulk(pairs.iter().map(|(l, id)| (l.as_str(), *id)));

        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-prop-trie-{}-{seed}", std::process::id()));
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 64);
        prop_assert_eq!(saved_bytes(&pool, &bulk), saved_bytes(&pool, &checked));
        prop_assert_eq!(bulk.node_count(), checked.node_count());
        for (label, _) in &pairs {
            for word in words(label) {
                prop_assert_eq!(bulk.search(&word), checked.search(&word), "{}", word);
                prop_assert!(word.len() > MAX_WORD || !checked.search(&word).is_empty());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
