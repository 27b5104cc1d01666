"""Read a trained encoder's representations with linear CKA, then build the
bookkeeping tables: transfer gaps, relative gains, and annotation cost.

CKA is computed on paired eval rows, so each target's score answers "how
similarly does the encoder embed the same underlying points after the domain
shift".  The cost model prices labeled source rows plus k few-shot target
rows per target.
"""

from ditto import (
    CostParams,
    DomainSpec,
    EncoderSpec,
    MixtureSpec,
    Rng,
    SizeSpec,
    TrainConfig,
    TrainVariant,
    annotation_cost,
    extract_features,
    generate_synthetic,
    linear_cka,
    pearson,
    relative_gain,
    spearman,
    train,
    transfer_gap,
)

MEANS = [[0.0, 1.8], [3.0, 0.0], [-3.44, -2.409]]


def main():
    base = MixtureSpec(means=MEANS, sigma=0.55)
    src = SizeSpec(labeled=600, unlabeled=600, fewshot=60, eval=400)
    tgt = SizeSpec(labeled=0, unlabeled=600, fewshot=60, eval=400)
    domains = [DomainSpec(id="src", kind="source", transform={"kind": "identity"}, sizes=src)]
    angles = (15, 30, 45, 60)
    for angle in angles:
        domains.append(DomainSpec(id=f"rot{angle}", kind="target",
                                  transform={"kind": "rotation", "angle": angle}, sizes=tgt))
    dataset = generate_synthetic(base, domains, Rng(7))

    config = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[32, 16]),
                         num_classes=3, epochs=30, batch_size=64,
                         lr=0.02, disc_lr=0.1, weight_decay=0.01)
    bundle, report = train(config, dataset, TrainVariant.parse("baseline", 0.0, 0.0), seed=0)
    acc = report.final_per_domain_acc

    src_feats = extract_features(bundle, dataset.domains[dataset.source].eval.X)
    print("target   CKA(src, target)   accuracy")
    ckas, accs = [], []
    for dom in dataset.target_ids():
        c = linear_cka(src_feats, extract_features(bundle, dataset.domains[dom].eval.X))
        ckas.append(c)
        accs.append(acc[dom])
        print(f"{dom:6s}   {c:16.4f}   {acc[dom]:8.2f}")
    print(f"similarity tracks accuracy: pearson {pearson(ckas, accs):+.3f}, "
          f"spearman {spearman(ckas, accs):+.3f}")

    gap = transfer_gap(acc, dataset.source, dataset.target_ids())
    print(f"\nmean source-to-target gap   {gap:.2f} points")
    far = f"rot{angles[-1]}"
    print(f"a 5-point recovery on {far} would be a relative gain of "
          f"{relative_gain(acc[far], acc[far] + 5.0):.2f}%")

    print("\nannotation cost (cents) for 1000 source rows, 4 targets, "
          "target labels 2x source price")
    for k in (0, 16, 64, 256):
        cost = annotation_cost(CostParams(c_s=3.0, n_labeled_source=1000,
                                          c_t_over_s=2.0, k=k, num_targets=4))
        print(f"  k={k:3d}   {cost:10.2f}")


if __name__ == "__main__":
    main()
