//! Scholarly question answering on a DBLP-like knowledge graph — the
//! "unseen domain" scenario of §7.2.3: KGQAn's models were trained only on
//! general-fact questions, yet it answers questions about papers, authors
//! and venues without any adaptation.
//!
//! ```text
//! cargo run --release --example dblp_scholarly_qa
//! ```

use kgqan::{AnswerRequest, QaService};
use kgqan_benchmarks::kg::{GeneratedKg, KgFlavor, KgScale};
use kgqan_endpoint::InProcessEndpoint;

fn main() {
    // A synthetic DBLP stand-in: publications with long titles, authors with
    // affiliations, venues, years.
    let kg = GeneratedKg::generate(KgFlavor::Dblp, KgScale::tiny());
    println!(
        "DBLP-like KG: {} triples, {} papers, {} authors",
        kg.store.len(),
        kg.facts.papers.len(),
        kg.facts.authors.len()
    );
    let endpoint = InProcessEndpoint::new("DBLP", kg.store.clone());

    println!("Training question-understanding models (general-fact corpus only)…");
    let service = QaService::builder().build().expect("default service");

    let paper = &kg.facts.papers[5];
    let author = &kg.facts.authors[paper.authors[0]];
    let questions = [
        format!("Who is the author of {}?", paper.title),
        format!("Which conference published {}?", paper.title),
        format!("What is the primary affiliation of {}?", author.name),
        format!("Did {} write the paper {}?", author.name, paper.title),
    ];

    for question in &questions {
        println!("\nQuestion: {question}");
        match service.answer_on(&AnswerRequest::new(question.as_str()), &endpoint) {
            Ok(response) => {
                let outcome = response.outcome;
                if let Some(verdict) = outcome.boolean {
                    println!("  Answer: {verdict}");
                } else if outcome.answers.is_empty() {
                    println!("  No answer found.");
                } else {
                    for answer in &outcome.answers {
                        println!("  Answer: {answer}");
                    }
                }
            }
            Err(e) => println!("  Failed: {e}"),
        }
    }

    println!(
        "\nGold for the first question: {:?}",
        paper
            .authors
            .iter()
            .map(|&a| kg.facts.authors[a].name.clone())
            .collect::<Vec<_>>()
    );
}
