"""Voice-feature benchmark: MFCC extraction, five from-scratch binary
classifiers, repeated stratified subsampling, and a nonparametric
model-comparison chain with reproducible outputs.
"""
import gc
import os

# Before numpy loads: one BLAS thread, no spinning helper; workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Importing numpy and the package leaves almost no cyclic garbage, so the
# collector's passes over the growing import graph would be wasted; the
# caller's setting comes back afterwards.
_collecting = gc.isenabled()
gc.disable()
try:
    from .audio import AudioClip, decode_wav, fix_duration, read_wav, resample
    from .data import (
        LabeledDataset,
        ScalerState,
        SplitTriple,
        apply_scaler,
        fit_scaler,
        load_audio_dataset,
        load_tabular_dataset,
        oversample,
        stratified_split,
    )
    from .harness import (
        DatasetSpec,
        ExperimentConfig,
        RunRecord,
        RunTable,
        StatReport,
        analyze,
        emit_outputs,
        emit_report,
        run_experiment,
    )
    from .metrics import ConfusionMatrix, MetricSet, confusion, metric_set, score
    from .mfcc import mel_filterbank, mfcc, stft_power, temporal_mean
    from .models import CANONICAL_KINDS, ClassifierSpec, fit, make_spec
    from .stats import (
        PairwiseMatrix,
        TestResult,
        compact_letters,
        dunn_bonferroni,
        kruskal_wallis,
        levene,
        shapiro_wilk,
    )
finally:
    if _collecting:
        gc.enable()

__version__ = "0.1.0"
