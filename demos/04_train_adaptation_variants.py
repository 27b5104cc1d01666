"""Train the baseline and the joint multi-target adversarial variant on the
same rotated-mixture benchmark and compare per-domain accuracy.

The adversarial variant needs a prior over targets; it is built from the
baseline model's zero-shot scores, so weaker targets get sampled more often.
"""

from ditto import (
    DomainSpec,
    EncoderSpec,
    MixtureSpec,
    Rng,
    SizeSpec,
    TrainConfig,
    TrainVariant,
    compute_prior,
    generate_synthetic,
    relative_gain,
    train,
)

MEANS = [[0.0, 1.8], [3.0, 0.0], [-3.44, -2.409]]
SEED = 0


def build_dataset():
    base = MixtureSpec(means=MEANS, sigma=0.55)
    src = SizeSpec(labeled=2000, unlabeled=2000, fewshot=100, eval=2000)
    tgt = SizeSpec(labeled=0, unlabeled=2000, fewshot=100, eval=2000)
    domains = [DomainSpec(id="src", kind="source", transform={"kind": "identity"}, sizes=src)]
    for angle in (15, 30, 45, 60):
        domains.append(DomainSpec(id=f"rot{angle}", kind="target",
                                  transform={"kind": "rotation", "angle": angle}, sizes=tgt))
    return generate_synthetic(base, domains, Rng(7))


def main():
    dataset = build_dataset()
    config = TrainConfig(encoder=EncoderSpec(input_dim=2, hidden_dims=[32, 16]),
                         num_classes=3, epochs=100, batch_size=64,
                         lr=0.02, disc_lr=0.1, weight_decay=0.01)

    _, base_report = train(config, dataset, TrainVariant.parse("baseline", 0.0, 0.0), SEED)
    base_acc = base_report.final_per_domain_acc

    prior = compute_prior(base_acc, dataset.source)
    print("target prior from baseline zero-shot scores")
    for dom in dataset.target_ids():
        print(f"  p({dom}) = {prior.probs[dom]:.3f}   (baseline acc {base_acc[dom]:.2f})")

    variant = TrainVariant.parse("ditto", lam=0.25, rho=0.05)
    _, adapted_report = train(config, dataset, variant, SEED, prior=prior)
    adapted_acc = adapted_report.final_per_domain_acc

    print("\ndomain      baseline   adapted    relative gain")
    for dom in [dataset.source] + dataset.target_ids():
        gain = relative_gain(base_acc[dom], adapted_acc[dom])
        print(f"{dom:10s}  {base_acc[dom]:7.2f}  {adapted_acc[dom]:8.2f}  {gain:+12.2f}%")

    counts = adapted_report.target_sample_counts
    total = sum(counts.values())
    drawn = "  ".join(f"{d}:{c / total:.2f}" for d, c in sorted(counts.items()))
    print(f"\nempirical target draw frequencies   {drawn}")


if __name__ == "__main__":
    main()
