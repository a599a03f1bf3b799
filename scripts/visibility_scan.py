#!/usr/bin/env python3
"""Scan |S_V| of the noisy W state against visibility and locate the threshold."""

import math

import numpy as np

from tribell import (
    Functional,
    StateTensor,
    correlation_tensor,
    critical_visibility,
    make_w,
    svetlichny_value,
    symmetric_pairs,
)

PAIRS = symmetric_pairs(math.radians(35.264), math.radians(144.736))

if __name__ == "__main__":
    state = StateTensor(make_w())
    print("visibility   |S_V|      violates hybrid bound 4")
    for v in np.linspace(0.0, 1.0, 21):
        value = abs(svetlichny_value(correlation_tensor(StateTensor(state, v), PAIRS)))
        print(f"  {v:6.3f}    {value:8.5f}   {'yes' if value > 4.0 else 'no'}")
    v_star = critical_visibility(correlation_tensor(state, PAIRS), Functional.SVETLICHNY)
    print(f"\ncritical visibility v* = {v_star:.6f}  (4/4.354 = {4.0 / 4.354:.6f})")
