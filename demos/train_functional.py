"""End-to-end training of a network surrogate for a scalar functional.

Samples random functions from the unit ball of a Gaussian reproducing
kernel, records their values at uniform grid nodes together with the
value of a weighted-integral functional, and trains a two-hidden-layer
tanh network to map node values to functional values.  The worst
held-out error then splits along the triangle inequality into a
projection part |F(f) - F(Pf)|, bounded by the Hölder constant times the
power-function sup, and a network part |F(Pf) - net(f at nodes)|.

The budget here is deliberately small so the script finishes in a few
seconds; the CLI `rfl train` and `rfl flm` commands run the full-size
versions.

Run with:  python3 demos/train_functional.py
"""

from __future__ import annotations

import numpy as np

from rfl import (
    Kernel,
    TargetFunctional,
    TrainConfig,
    error_decomposition,
    generate_dataset,
)


def main() -> None:
    kernel = Kernel("gaussian", sigma=1.0, dim=1)
    functional = TargetFunctional("linear_integral", beta="one")
    m = 8
    config = TrainConfig(epochs=200, widths=(32, 32), seed=7)

    dataset = generate_dataset(kernel, functional, m, n_samples=600, seed=7)
    result = error_decomposition(dataset, config)

    heldout_y = dataset.targets[dataset.n_train :]
    baseline = float(np.abs(heldout_y - dataset.targets[: dataset.n_train].mean()).mean())

    print(f"kernel gaussian(sigma=1, d=1), m={m} nodes, {dataset.n_train} training samples")
    print(f"final train mse        {result.train_report.final_train_mse:.3e}")
    print(f"worst held-out error   {result.total:.3e}")
    print(f"  projection term I    {result.term_I:.3e}")
    print(f"  network term II      {result.term_II:.3e}")
    print(f"  I + II               {result.term_I + result.term_II:.3e}  (triangle bound)")
    print(f"Holder constant C_F    {result.c_f:.3f}")
    print(f"power-function sup     {result.power_sup:.3e}")
    print(f"certificate C_F*eps    {result.c_f * result.power_sup:.3e}  (bounds term I)")
    mean_err = result.train_report.heldout_mean_abs
    print(f"mean held-out error    {mean_err:.3e}  vs best-constant baseline {baseline:.3e}")


if __name__ == "__main__":
    main()
