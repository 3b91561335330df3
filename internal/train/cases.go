// Package train runs data-parallel synchronous SGD over the simulated
// cluster: every worker holds a bit-identical model replica, computes real
// gradients on its own data shard, synchronizes them through a pluggable
// sparse all-reduce (SparDL or a baseline), and applies the identical
// averaged update. Virtual time advances by a per-case computation constant
// plus whatever the communication layer charges, so "accuracy vs. training
// time" curves reproduce the paper's evaluation methodology.
package train

import (
	"fmt"
	"math/rand"

	"spardl/internal/data"
	"spardl/internal/nn"
)

// Case is one of the paper's seven deep-learning cases (Table II) with its
// scaled stand-in model and dataset. PaperParams is the original model's
// parameter count, used by the timing experiments; ComputeTime is the
// simulated forward+backward seconds per iteration (constant across
// communication methods, as the paper observes).
type Case struct {
	ID          int
	Name        string
	Task        string
	PaperParams int
	ComputeTime float64
	BatchSize   int
	LR          float32
	Momentum    float32
	// Accuracy is true when the paper plots test accuracy for this case
	// and false when it plots loss.
	Accuracy bool
	// ItersPerEpoch defines the synthetic epoch length used by the
	// per-epoch timing figures (12, 14, 15).
	ItersPerEpoch int

	NewModel func(seed int64) nn.Model
	NewData  func(seed int64) data.Dataset
}

// Cases mirrors Table II. Stand-in parameter counts keep the paper's size
// ordering (VGG-11 < VGG-16 < VGG-19 < ResNet-50 < LSTM-IMDB < LSTM-PTB <
// BERT) at roughly 1/200 scale; co-scaling n and β (Config.PaperScaleComm)
// preserves every timing trade-off.
var Cases = []*Case{
	{
		ID: 1, Name: "VGG16/CIFAR10", Task: "image classification",
		PaperParams: 14_700_000, ComputeTime: 0.044,
		BatchSize: 32, LR: 0.08, Momentum: 0.9, Accuracy: true, ItersPerEpoch: 40,
		NewModel: func(seed int64) nn.Model {
			return nn.NewMLPClassifier(rand.New(rand.NewSource(seed)), []int{64, 320, 192, 10})
		},
		NewData: func(seed int64) data.Dataset {
			return data.NewGaussianClasses("CIFAR10", 10, 64, 1.6, seed)
		},
	},
	{
		ID: 2, Name: "VGG19/CIFAR100", Task: "image classification",
		PaperParams: 20_100_000, ComputeTime: 0.060,
		BatchSize: 32, LR: 0.08, Momentum: 0.9, Accuracy: true, ItersPerEpoch: 40,
		NewModel: func(seed int64) nn.Model {
			return nn.NewMLPClassifier(rand.New(rand.NewSource(seed)), []int{64, 352, 224, 100})
		},
		NewData: func(seed int64) data.Dataset {
			return data.NewGaussianClasses("CIFAR100", 100, 64, 1.0, seed)
		},
	},
	{
		ID: 3, Name: "ResNet50/ImageNet", Task: "image classification",
		PaperParams: 23_500_000, ComputeTime: 0.070,
		BatchSize: 32, LR: 0.05, Momentum: 0.9, Accuracy: true, ItersPerEpoch: 40,
		NewModel: func(seed int64) nn.Model {
			return nn.NewResMLPClassifier(rand.New(rand.NewSource(seed)), 64, 192, 2, 50)
		},
		NewData: func(seed int64) data.Dataset {
			return data.NewGaussianClasses("ImageNet", 50, 64, 1.8, seed)
		},
	},
	{
		ID: 4, Name: "VGG11/House", Task: "image regression",
		PaperParams: 9_200_000, ComputeTime: 0.028,
		BatchSize: 32, LR: 0.02, Momentum: 0.9, Accuracy: false, ItersPerEpoch: 40,
		NewModel: func(seed int64) nn.Model {
			return nn.NewMLPRegressor(rand.New(rand.NewSource(seed)), []int{64, 224, 96, 1})
		},
		NewData: func(seed int64) data.Dataset {
			return data.NewHouseRegression(64, seed)
		},
	},
	{
		ID: 5, Name: "LSTM-IMDB/IMDB", Task: "text classification",
		PaperParams: 35_200_000, ComputeTime: 0.106,
		BatchSize: 16, LR: 0.15, Momentum: 0.9, Accuracy: true, ItersPerEpoch: 30,
		NewModel: func(seed int64) nn.Model {
			return nn.NewLSTMClassifier(rand.New(rand.NewSource(seed)), 500, 64, 160, 2)
		},
		NewData: func(seed int64) data.Dataset {
			return data.NewSentimentSeq(500, 16, seed)
		},
	},
	{
		ID: 6, Name: "LSTM-PTB/PTB", Task: "language modelling",
		PaperParams: 66_000_000, ComputeTime: 0.198,
		BatchSize: 10, LR: 0.35, Momentum: 0.9, Accuracy: false, ItersPerEpoch: 30,
		NewModel: func(seed int64) nn.Model {
			return nn.NewLSTMLM(rand.New(rand.NewSource(seed)), 400, 80, 144)
		},
		NewData: func(seed int64) data.Dataset {
			return data.NewMarkovLM(400, 10, seed)
		},
	},
	{
		ID: 7, Name: "BERT/Wikipedia", Task: "language processing",
		PaperParams: 133_500_000, ComputeTime: 0.400,
		BatchSize: 6, LR: 0.10, Momentum: 0.9, Accuracy: false, ItersPerEpoch: 20,
		NewModel: func(seed int64) nn.Model {
			return nn.NewBERTLike(rand.New(rand.NewSource(seed)), 800, 128, 2)
		},
		NewData: func(seed int64) data.Dataset {
			return data.NewMaskedLM(800, 12, seed)
		},
	},
}

// CaseByID returns the case with the given Table II number.
func CaseByID(id int) *Case {
	for _, c := range Cases {
		if c.ID == id {
			return c
		}
	}
	panic(fmt.Sprintf("train: unknown case %d", id))
}
