"""A production-flavored pipeline: discover, calibrate, resolve, update.

The paper assumes the ambiguous names are given. A deployed system must
(1) *find* candidate ambiguous names, (2) choose the clustering threshold
without labels, (3) resolve, and (4) absorb newly arriving references
without re-clustering. This example runs all four stages with the
extension modules:

- `repro.core.candidates` — structural ambiguity scan;
- `repro.eval.calibration`  — min-sim calibration from synthetic ambiguity
  (pooled rare names), zero manual labels;
- `repro.ingest.greedy` — online assignment of held-back references.

Run:  python examples/discovery_pipeline.py
"""

from repro import Distinct, DistinctConfig, GeneratorConfig, generate_world
from repro.core.candidates import find_ambiguous_candidates
from repro.ingest.greedy import extend_resolution
from repro.data.ambiguity import AmbiguousNameSpec
from repro.data.world import world_to_database
from repro.eval.metrics import pairwise_scores
from repro.eval.calibration import calibrate_min_sim


def main() -> None:
    specs = [
        AmbiguousNameSpec("Wei Wang", (14, 9, 4)),
        AmbiguousNameSpec("Bing Liu", (10, 7)),
    ]
    world = generate_world(
        GeneratorConfig(
            seed=17,
            n_communities=10,
            regular_entities_per_community=30,
            rare_entities=80,
            background_papers_per_community_year=6,
        ),
        specs,
    )
    db, truth = world_to_database(world)
    distinct = Distinct(
        DistinctConfig(n_positive=400, n_negative=400, svm_C=10.0)
    ).fit(db)

    # -- 1. discovery ---------------------------------------------------------
    candidates = find_ambiguous_candidates(db, min_refs=8, min_score=0.3, limit=8)
    print("candidate ambiguous names (structural scan):")
    for candidate in candidates:
        print(f"  {candidate}")

    # -- 2. label-free threshold calibration -----------------------------------
    calibration = calibrate_min_sim(distinct, n_names=10, members=2, seed=5)
    print(
        f"\ncalibrated min-sim = {calibration.best_min_sim} "
        f"(f1 on synthetic ambiguity: "
        f"{calibration.f1_by_min_sim[calibration.best_min_sim]:.3f})"
    )

    # -- 3. resolution at the calibrated threshold ------------------------------
    print()
    for name in ("Wei Wang", "Bing Liu"):
        resolution = distinct.resolve(name, min_sim=calibration.best_min_sim)
        gold = list(truth.clusters_for(name).values())
        scores = pairwise_scores(resolution.clusters, gold)
        print(
            f"{name}: {len(resolution.rows)} refs -> "
            f"{resolution.n_clusters} entities (true {len(gold)}), {scores}"
        )

    # -- 4. incremental update ---------------------------------------------------
    # Pretend the last two Wei Wang references arrive after the initial
    # resolution: resolve without them, then assign them online.
    prep = distinct.prepare("Wei Wang")
    arriving = prep.rows[-2:]
    existing = [r for r in prep.rows if r not in arriving]

    import numpy as np

    keep = [i for i, r in enumerate(prep.rows) if r in existing]
    base = distinct.cluster_prepared(prep, min_sim=calibration.best_min_sim)
    reduced_clusters = [
        {r for r in c if r in existing} for c in base.clusters
    ]
    from repro.core.distinct import NameResolution

    reduced = NameResolution(
        name="Wei Wang",
        rows=existing,
        clusters=[c for c in reduced_clusters if c],
        clustering=None,
        features=None,
        resem_matrix=base.resem_matrix[np.ix_(keep, keep)],
        walk_matrix=base.walk_matrix[np.ix_(keep, keep)],
    )
    extended, assignments = extend_resolution(
        distinct, reduced, arriving, min_sim=calibration.best_min_sim
    )
    print("\nincremental arrival of two new references:")
    for assignment in assignments:
        verb = "opened new cluster" if assignment.created_new_cluster else (
            f"joined cluster {assignment.cluster_index}"
        )
        entity = truth.entity_of_row[assignment.row]
        print(
            f"  ref {assignment.row} (true entity {entity}) {verb} "
            f"(similarity {assignment.similarity:.4f})"
        )

    # -- 5. explanation: why were two references judged equivalent? -------------
    from repro.core.explain import explain_pair

    rows = truth.rows_of_name["Wei Wang"]
    same_entity = [
        r for r in rows if truth.entity_of_row[r] == truth.entity_of_row[rows[0]]
    ]
    print("\nwhy the pipeline considers two references the same person:")
    print(explain_pair(distinct, "Wei Wang", same_entity[0], same_entity[1]).render(k=3))


if __name__ == "__main__":
    main()
