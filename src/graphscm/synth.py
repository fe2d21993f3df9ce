"""Synthetic academic-style graphs with planted causal structure.

The generator builds an author/paper/venue/term world in which an author's
label is, by construction, the majority class of the venues their papers
appear in (optionally flipped by label noise). Venues carry exact one-hot
class features; author and paper features are class-agnostic noise plus a
small label leak scaled by the noise level. Co-authorships are wired so
that in the "train" regime co-author labels agree with a configurable
probability while in the "test" regime they agree at chance, planting a
spurious correlation that holds only on the training side.

Shared (co-authored) papers carry no venue, so the venue-majority rule is
never polluted by collaboration.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, write_json
from .hetgraph import HeteroGraph, Relation, Schema, enumerate_metapaths, metapath_reach
from .rng import substream
from .splits import OOD_TRAIN_FRACTION, SplitSpec

TRAIN_REGIME = "train"
TEST_REGIME = "test"
LEAK_FIDELITY = 0.5  # chance a leak block shows the true class rather than a random one
TERM_CLASS_AFFINITY = 0.7  # chance a venued paper draws a term from its venue's class pool
FLIP_TEMPTATION = 0.15  # fraction of partnership draws keyed on the stored label instead
CAUSAL_METAPATH = "APV"  # the venue pool, whose majority class is the label
SPURIOUS_METAPATH = "APA"  # the co-author pool, label-correlated in the train regime only
VENUES_PER_CLASS = 3
PAPERS_PER_AUTHOR = 3  # venued papers per author, in distinct venues: at most VENUES_PER_CLASS
TERMS_PER_PAPER = 2
TEST_REGIME_FRACTION = 1.0 / 3.0  # share of authors whose co-authors agree at chance
FEATURE_DIM = 4  # author and paper feature width: a class leak block, then noise columns


@dataclass
class SynthSpec:
    authors: int = 2000
    terms: int = 40
    num_classes: int = 3
    spurious_strength: float = 0.95
    partners_per_author: int = 8
    noise: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.spurious_strength <= 1.0:
            raise ConfigError("spurious_strength must lie in [0, 1]")
        if not 0.0 <= self.noise <= 1.0:  # a flip probability; nan fails too
            raise ConfigError("noise must be a finite number in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.authors < self.num_classes:
            raise ConfigError("need at least one author per class")
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.terms < max(self.num_classes, TERMS_PER_PAPER):
            raise ConfigError(f"terms must be at least num_classes and {TERMS_PER_PAPER}")
        if self.num_classes > FEATURE_DIM:
            raise ConfigError(f"num_classes must be at most the author/paper feature width {FEATURE_DIM}")
        if self.authors * TEST_REGIME_FRACTION < 4:  # the test regime is the smaller one
            raise ConfigError("both regimes need at least a handful of authors")


@dataclass
class AuthorRecord:
    author: int
    regime: str
    majority_class: int
    label: int
    flipped: bool
    partners: list[int] = field(default_factory=list)


@dataclass
class GroundTruth:
    """Generative record: enough to re-derive every label and regime."""

    spec: SynthSpec
    records: list[AuthorRecord]
    planted_cause: str   # metapath whose aggregate determines the label
    spurious: str        # metapath carrying the regime-dependent correlation

    def regime_indices(self, regime: str) -> list[int]:
        return [r.author for r in self.records if r.regime == regime]

    def planted_homophily_gap(self) -> float:
        """Expected train-minus-test gap in stored-label co-author homophily.

        Most partnerships key on pre-flip classes (same-class probability
        ``s`` in the train regime, 1/C in the test regime); a
        FLIP_TEMPTATION fraction key on stored labels and agree exactly
        with probability s. For class-keyed pairs each stored label equals
        its class with probability q = 1 - noise*(C-1)/C, giving agreement
        q^2 + (1-q)^2/(C-1) for same-class pairs and
        2q(1-q)/(C-1) + (C-2)(1-q)^2/(C-1)^2 for cross-class pairs. The
        homophily gap mixes the two accordingly.
        """
        c = self.spec.num_classes
        s = self.spec.spurious_strength
        q = 1.0 - self.spec.noise * (c - 1) / c
        agree_same = q**2 + (1.0 - q) ** 2 / (c - 1)
        agree_diff = 2.0 * q * (1.0 - q) / (c - 1) + (c - 2) * (1.0 - q) ** 2 / (c - 1) ** 2
        label_keyed = FLIP_TEMPTATION
        return (s - 1.0 / c) * (label_keyed + (1.0 - label_keyed) * (agree_same - agree_diff))

    def to_json(self, path: str) -> None:
        payload = {
            "spec": asdict(self.spec),
            "planted_cause": self.planted_cause,
            "spurious": self.spurious,
            "records": [asdict(r) for r in self.records],
        }
        write_json(payload, path)


def academic_schema(num_classes: int) -> Schema:
    return Schema(
        node_types=["author", "paper", "venue", "term"],
        relations=[
            Relation("write", "author", "paper", "rev_write"),
            Relation("rev_write", "paper", "author", "write"),
            Relation("publish", "venue", "paper", "rev_publish"),
            Relation("rev_publish", "paper", "venue", "publish"),
            Relation("use", "paper", "term", "rev_use"),
            Relation("rev_use", "term", "paper", "use"),
        ],
        target_type="author",
        num_classes=num_classes,
    )


def _draw_partners(rng, author, pool_by_label, label, strength, count):
    """Distinct partners: same-pool with probability ``strength`` per slot.

    ``pool_by_label`` maps each class to its authors as an ascending int64
    array; the other pool is the other classes' arrays in key order."""
    same = pool_by_label[label]
    same = same[same != author]
    other = np.concatenate([pool_by_label[c] for c in pool_by_label if c != label])
    n_same = int(np.sum(rng.random(count) < strength))
    n_same = min(n_same, same.shape[0])
    n_other = min(count - n_same, other.shape[0])
    picked = []
    if n_same:
        picked += rng.choice(same, size=n_same, replace=False).tolist()
    if n_other:
        picked += rng.choice(other, size=n_other, replace=False).tolist()
    return picked


def _draw_terms(rng, paper_venue_class, term_class):
    """``(paper, term)`` pairs: TERMS_PER_PAPER distinct terms per paper,
    ascending, each drawn from the venue class's terms with probability
    TERM_CLASS_AFFINITY and from all terms otherwise (always, for a
    venue-less paper). ``pool[rng.integers(pool.size)]`` draws what
    ``rng.choice(pool)`` draws, through the same generator call."""
    everything = np.arange(term_class.shape[0])
    by_class = [np.flatnonzero(term_class == k) for k in range(int(term_class.max()) + 1)]
    use_edges = []
    for p, vclass in enumerate(paper_venue_class):
        picked: set[int] = set()
        while len(picked) < TERMS_PER_PAPER:
            if vclass is not None and rng.random() < TERM_CLASS_AFFINITY:
                pool = by_class[vclass]
            else:
                pool = everything
            picked.add(int(pool[rng.integers(pool.size)]))
        use_edges += [(p, t) for t in sorted(picked)]
    return use_edges


def generate(spec: SynthSpec) -> tuple[HeteroGraph, GroundTruth]:
    """Build the graph and its generative record, deterministically per seed."""
    spec.validate()
    rng = substream(spec.seed, "synth")
    c = spec.num_classes
    n_authors = spec.authors
    n_venues = VENUES_PER_CLASS * c
    venue_class = np.arange(n_venues) // VENUES_PER_CLASS

    n_test = int(round(TEST_REGIME_FRACTION * n_authors))
    regime = np.array([TEST_REGIME] * n_authors, dtype=object)
    regime[rng.permutation(n_authors)[: n_authors - n_test]] = TRAIN_REGIME

    target_class = rng.integers(0, c, size=n_authors)

    # own papers: each in a distinct venue of the author's class, so the
    # deduplicated venue pool is single-class and the majority is exact
    write_edges: list[tuple[int, int]] = []
    publish_edges: list[tuple[int, int]] = []
    paper_venue_class: list[int | None] = []
    next_paper = 0
    for a in range(n_authors):
        own_venues = np.flatnonzero(venue_class == target_class[a])
        for v in rng.choice(own_venues, size=PAPERS_PER_AUTHOR, replace=False):
            write_edges.append((a, next_paper))
            publish_edges.append((int(v), next_paper))
            paper_venue_class.append(int(venue_class[v]))
            next_paper += 1

    majority = target_class.copy()  # exact by construction

    flip = rng.random(n_authors) < spec.noise
    flipped_to = rng.integers(0, c, size=n_authors)
    labels = np.where(flip, flipped_to, majority)
    actually_flipped = labels != majority

    records = [
        AuthorRecord(
            author=a,
            regime=str(regime[a]),
            majority_class=int(majority[a]),
            label=int(labels[a]),
            flipped=bool(actually_flipped[a]),
        )
        for a in range(n_authors)
    ]

    # co-authorships: one venue-less shared paper per partnership, wired
    # within each regime: same-class with the planted probability in the
    # train regime, chance in the test regime. Half of the same-class slots
    # key on the stored label rather than the pre-flip class, so in the
    # train regime the co-author channel partially explains even the label
    # noise: an in-sample temptation that carries nothing on the test side.
    pools: dict[str, dict[int, np.ndarray]] = {}
    label_pools: dict[str, dict[int, np.ndarray]] = {}
    for reg in (TRAIN_REGIME, TEST_REGIME):
        members = regime == reg
        pools[reg] = {cls: np.flatnonzero(members & (majority == cls)) for cls in range(c)}
        label_pools[reg] = {cls: np.flatnonzero(members & (labels == cls)) for cls in range(c)}
    for a in range(n_authors):
        reg = str(regime[a])
        strength = spec.spurious_strength if reg == TRAIN_REGIME else 1.0 / c
        by_label = rng.random() < FLIP_TEMPTATION
        key_pools = label_pools[reg] if by_label else pools[reg]
        anchor = int(labels[a]) if by_label else int(majority[a])
        partners = _draw_partners(
            rng, a, key_pools, anchor, strength, spec.partners_per_author
        )
        records[a].partners = partners
        for b in partners:
            write_edges.append((a, next_paper))
            write_edges.append((b, next_paper))
            paper_venue_class.append(None)
            next_paper += 1

    # terms lean toward their venue class (venue-less papers draw uniformly),
    # so the term variable carries a weak class echo rather than a constant
    n_papers = next_paper
    term_class = np.arange(spec.terms) % c
    use_edges = _draw_terms(rng, paper_venue_class, term_class)

    # features: venues carry exact one-hot class blocks; authors and papers
    # carry a small discrete class leak plus discrete class-agnostic noise,
    # both at the noise scale. Everything is drawn from a tiny alphabet so
    # nodes cannot be fingerprinted and memorized: the achievable training
    # loss is the true conditional entropy, which keeps the task gradient
    # alive for the whole run.
    venue_feats = np.zeros((n_venues, c))
    venue_feats[np.arange(n_venues), venue_class] = 1.0

    author_feats = np.zeros((n_authors, FEATURE_DIM))
    leak_is_true = rng.random(n_authors) < LEAK_FIDELITY
    leak_class = np.where(leak_is_true, labels, rng.integers(0, c, size=n_authors))
    author_feats[np.arange(n_authors), leak_class] = spec.noise
    author_feats[:, c:] = rng.integers(-1, 2, size=(n_authors, FEATURE_DIM - c)) * spec.noise

    paper_feats = np.zeros((n_papers, FEATURE_DIM))
    paper_leak_true = rng.random(n_papers) < LEAK_FIDELITY
    paper_leak_class = rng.integers(0, c, size=n_papers)
    for p, vclass in enumerate(paper_venue_class):
        if vclass is not None:
            shown = vclass if paper_leak_true[p] else int(paper_leak_class[p])
            paper_feats[p, shown] = spec.noise
    paper_feats[:, c:] = rng.integers(-1, 2, size=(n_papers, FEATURE_DIM - c)) * spec.noise

    # terms carry a one-hot of their class at noise scale
    term_feats = np.zeros((spec.terms, c))
    term_feats[np.arange(spec.terms), term_class] = spec.noise

    write = np.array(write_edges, dtype=np.int64)
    publish = np.array(publish_edges, dtype=np.int64)
    use = np.array(use_edges, dtype=np.int64)
    graph = HeteroGraph(
        schema=academic_schema(c),
        features={
            "author": author_feats,
            "paper": paper_feats,
            "venue": venue_feats,
            "term": term_feats,
        },
        edges={
            "write": write,
            "rev_write": write[:, ::-1].copy(),
            "publish": publish,
            "rev_publish": publish[:, ::-1].copy(),
            "use": use,
            "rev_use": use[:, ::-1].copy(),
        },
        labels=labels.astype(np.int64),
    )
    truth = GroundTruth(
        spec=spec,
        records=records,
        planted_cause=CAUSAL_METAPATH,
        spurious=SPURIOUS_METAPATH,
    )
    return graph, truth


def regime_split(truth: GroundTruth) -> SplitSpec:
    """Train/val (60/40) from the spurious regime, shuffled by the spec's
    seed; test is the chance regime."""
    train_regime = truth.regime_indices(TRAIN_REGIME)
    test_regime = truth.regime_indices(TEST_REGIME)
    if not train_regime or not test_regime:
        raise ConfigError("both regimes must be nonempty")
    seed = truth.spec.seed
    rng = substream(seed, "regime-split")
    order = [train_regime[i] for i in rng.permutation(len(train_regime))]
    n_train = math.floor(OOD_TRAIN_FRACTION * len(order))
    train = order[:n_train]
    val = order[n_train:]
    return SplitSpec(
        train=train, val=val, test=sorted(test_regime), provenance="regime", seed=seed
    )


# ---------------------------------------------------------------------------
# measurement helpers (read the generated graph, not the records)

def coauthor_pairs(graph: HeteroGraph) -> list[tuple[int, int]]:
    """All unordered author pairs sharing at least one paper, as sorted
    ``(x, y)`` tuples with x < y: the author-paper-author walk from every
    author, each pair kept from its smaller end."""
    authors = np.arange(graph.num_nodes("author"))
    pairs = []
    for lo, _, rows, indices in metapath_reach(graph, authors, ("write", "rev_write")):
        first = lo + rows
        keep = first < indices
        pairs.extend(zip(first[keep].tolist(), indices[keep].tolist()))
    return pairs


def coauthor_agreement(graph: HeteroGraph, authors: set[int], rng=None, sample: int = 1000) -> float:
    """Label agreement rate over co-author pairs inside ``authors``."""
    pairs = [p for p in coauthor_pairs(graph) if p[0] in authors and p[1] in authors]
    if not pairs:
        raise ConfigError("no co-author pairs in the requested subpopulation")
    if rng is not None and len(pairs) > sample:
        idx = rng.choice(len(pairs), size=sample, replace=False)
        pairs = [pairs[i] for i in idx]
    agree = sum(1 for a, b in pairs if graph.labels[a] == graph.labels[b])
    return agree / len(pairs)


def venue_majority_rule(graph: HeteroGraph) -> np.ndarray:
    """Predict each author's class as the majority venue class of their papers.

    Reads only the graph: venue classes are recovered from the one-hot venue
    features; the venue pool is deduplicated; ties break to the lowest class.
    """
    apv = next(mp for mp in enumerate_metapaths(graph.schema, 2) if mp.name == CAUSAL_METAPATH)
    venue_class = graph.features["venue"].argmax(axis=1)
    n_classes = graph.schema.num_classes
    counts = np.zeros((graph.num_nodes("author"), n_classes), dtype=np.int64)
    for lo, hi, rows, indices in metapath_reach(graph, np.arange(counts.shape[0]), apv.relations):
        keys = rows * n_classes + venue_class[indices]
        counts[lo:hi] = np.bincount(keys, minlength=(hi - lo) * n_classes).reshape(-1, n_classes)
    return counts.argmax(axis=1)  # argmax takes the lowest index on ties


def rule_accuracy(graph: HeteroGraph) -> float:
    """Accuracy of the venue-majority rule against the stored labels."""
    pred = venue_majority_rule(graph)
    labeled = graph.labeled_nodes()
    return float(np.mean(pred[labeled] == graph.labels[labeled]))
