"""Drop two optimizers into the same 1-D double well and watch them pick
different basins.

The loss is min(w^2, 25(w-1)^2 + 0.01): a flat parabola centered at 0 and a
much sharper one centered at 1, lifted so the branches never tie.  From
w = 0.9 plain AdamW rolls into the sharp well.  The sharpness-aware step
first climbs the local gradient (radius rho), evaluates the gradient there,
and descends using that; near a narrow minimum the probe overshoots the far
wall, which steadily pushes the iterate out into the flat basin.
"""

import numpy as np

from ditto import AdamWConfig, ParamStore, Tape, sam_step
from ditto.autodiff import affine, hadamard, minimum, summation

SHARP_SCALE = 25.0
SHARP_CENTER = 1.0
SHARP_LIFT = 0.01
START = 0.9


def well_loss(store):
    def loss_proc():
        tape = Tape()
        w = tape.watch(store["w"])
        flat = hadamard(w, w)
        shifted = affine(w, tape.constant([[1.0]]), tape.constant([[-SHARP_CENTER]]))
        sharp = affine(hadamard(shifted, shifted),
                       tape.constant([[SHARP_SCALE]]), tape.constant([[SHARP_LIFT]]))
        return summation(minimum(flat, sharp))

    return loss_proc


def descend(rho, steps=400, lr=0.02, trace_at=(0, 50, 100, 200, 399)):
    store = ParamStore([("w", np.array([[START]]))])
    cfg = AdamWConfig(lr=lr, total_steps=steps)
    trace = []
    for step in range(steps):
        sam_step(well_loss(store), store, rho, cfg, step)
        if step in trace_at:
            trace.append((step, float(store["w"].value[0, 0])))
    return float(store["w"].value[0, 0]), trace


def basin(w):
    # the branches cross where w^2 = 25(w-1)^2 + 0.01
    return "flat (center 0)" if w < 0.83435 else "sharp (center 1)"


def main():
    for rho, label in ((0.0, "plain AdamW   "), (0.3, "sharpness-aware")):
        final, trace = descend(rho)
        path = "  ".join(f"w[{s}]={w:+.3f}" for s, w in trace)
        print(f"{label}  rho={rho:.1f}  ->  {final:+.4f}   {basin(final)}")
        print(f"                 {path}")


if __name__ == "__main__":
    main()
