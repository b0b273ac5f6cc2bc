"""Voice-feature benchmark: MFCC extraction, five from-scratch binary
classifiers, repeated stratified subsampling, and a nonparametric
model-comparison chain with reproducible outputs.

The package root loads no submodule: import code from its module
(voicebench.cli, voicebench.models, ...).
"""
import os

# Before numpy loads: one BLAS thread, no spinning helper; workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
