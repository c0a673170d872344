"""Multi-view prompt-tuning for low-resource relation extraction, desk scale.

Relations are represented by m trainable virtual words predicted at m
consecutive mask slots; a learned posterior weighs the views, a
global/local cosine regularizer shapes the virtual embeddings, and the
virtual words can be initialized from label seed words, from the model's
own cloze predictions, or both. Everything runs on a small from-scratch
masked language model with exact reverse-mode gradients.
"""

from . import autodiff
from .data import (CorpusSpec, Dataset, DatasetSplits, RelationInstance, generate_corpus,
                   load_jsonl, make_splits, merge_datasets, sample_kshot, save_jsonl)
from .errors import (AnalysisError, EncodingError, InitError, LoadError, MvreError,
                     NumericError, SamplingError, UndefinedRatioError,
                     ValidationError)
from .experiments import (GridRow, RunResult, TrainConfig, TrainedArtifacts,
                          evaluate, micro_f1, pretrain_bundle, run_grid,
                          run_similarity_protocol, similarity_ratio, sweep_m, train,
                          view_aspect_heatmap)
from .init_schemes import ProbeRecord, apply_init, dynamic_init, encode_probe_template
from .losses import (ViewPosteriorHead, ViewScores, infer, global_loss, local_loss,
                     mvdl_loss, per_view_label_probs,
                     relation_scores, total_loss, verbalizer_embeddings,
                     view_posterior, view_scores)
from .model import (AdamW, Checkpoint, MlmModel, ModelConfig, PretrainConfig,
                    PretrainResult, forward_batch, load_checkpoint, pretrain_mlm,
                    save_checkpoint)
from .schema import (RelationSchema, load_schema, save_schema, schema_from_relations,
                     si_tokens_from_label, synthetic_schema)
from .vocab import (EncodedPrompt, Verbalizer, Vocab, build_vocab, decode,
                    encode_sentence, wrap_template)

__version__ = "0.1.0"
